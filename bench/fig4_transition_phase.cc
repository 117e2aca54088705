/**
 * @file
 * Figure 4: the effect of the transition phase. CPI CoV, number of
 * phases, time spent in transitions, and last-value misprediction
 * rate for similarity thresholds of 12.5% and 25% crossed with
 * transition min-count thresholds of 0, 4 and 8 (16 counters,
 * 32-entry table).
 *
 * Expected shape (paper): the transition phase cuts the number of
 * phase IDs from hundreds to tens without significantly hurting CoV;
 * min count 8 at 12.5% pushes transition time to ~30% for gcc-like
 * programs; the 25%+min-8 configuration balances CoV, phase count,
 * transition time and predictability, and reduces last-value
 * mispredictions vs the baseline.
 */

#include <iostream>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "pred/eval.hh"

using namespace tpcp;

namespace
{

struct Config
{
    const char *label;
    double threshold;
    unsigned minCount;
};

constexpr Config configs[] = {
    {"12.5%+0min", 0.125, 0}, {"12.5%+4min", 0.125, 4},
    {"12.5%+8min", 0.125, 8}, {"25%+4min", 0.25, 4},
    {"25%+8min", 0.25, 8},
};
constexpr std::size_t numConfigs =
    sizeof(configs) / sizeof(configs[0]);

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv, {cli::traceFlag()});
    bench::banner("Figure 4",
                  "Transition-phase classification (similarity x "
                  "min-count)");
    auto profiles = analysis::loadWorkloads(args);

    std::vector<std::string> headers = {"workload"};
    for (const Config &c : configs)
        headers.push_back(c.label);

    std::vector<phase::ClassifierConfig> grid_cfgs;
    for (const Config &c : configs) {
        phase::ClassifierConfig cfg;
        cfg.numCounters = 16;
        cfg.tableEntries = 32;
        cfg.similarityThreshold = c.threshold;
        cfg.minCountThreshold = c.minCount;
        grid_cfgs.push_back(cfg);
    }
    auto results = analysis::runGrid(profiles, grid_cfgs, args.jobs);

    AsciiTable cov(headers);
    AsciiTable phases(headers);
    AsciiTable trans(headers);
    AsciiTable mispred(headers);
    std::vector<std::vector<double>> cov_cols(numConfigs),
        phase_cols(numConfigs), trans_cols(numConfigs),
        mis_cols(numConfigs);

    for (std::size_t w = 0; w < profiles.size(); ++w) {
        const std::string &name = profiles[w].first;
        cov.row().cell(name);
        phases.row().cell(name);
        trans.row().cell(name);
        mispred.row().cell(name);
        for (std::size_t c = 0; c < numConfigs; ++c) {
            const analysis::ClassificationResult &res =
                results[w * numConfigs + c];

            // Last-value misprediction rate over the classified
            // phase-ID stream (no confidence, no change table).
            pred::NextPhaseStats lv = pred::evalNextPhase(
                res.trace.phases, std::nullopt);
            double miss = 1.0 - lv.accuracy();

            cov.percentCell(res.covCpi);
            phases.cell(static_cast<std::uint64_t>(res.numPhases));
            trans.percentCell(res.transitionFraction);
            mispred.percentCell(miss);
            cov_cols[c].push_back(res.covCpi);
            phase_cols[c].push_back(
                static_cast<double>(res.numPhases));
            trans_cols[c].push_back(res.transitionFraction);
            mis_cols[c].push_back(miss);
        }
    }
    cov.row().cell("avg");
    phases.row().cell("avg");
    trans.row().cell("avg");
    mispred.row().cell("avg");
    for (std::size_t c = 0; c < numConfigs; ++c) {
        cov.percentCell(bench::mean(cov_cols[c]));
        phases.cell(bench::mean(phase_cols[c]), 1);
        trans.percentCell(bench::mean(trans_cols[c]));
        mispred.percentCell(bench::mean(mis_cols[c]));
    }

    std::cout << "CPI CoV (transition phase excluded):\n";
    cov.print(std::cout);
    std::cout << "\nNumber of stable phase IDs:\n";
    phases.print(std::cout);
    std::cout << "\nTime classified into the transition phase:\n";
    trans.print(std::cout);
    std::cout << "\nLast-value phase-ID misprediction rate:\n";
    mispred.print(std::cout);
    std::cout << "\nPaper shape check: min-count thresholds cut phase "
                 "counts by ~10x; the\n25%+8min configuration gives "
                 "low transition time and the lowest last-value\n"
                 "misprediction rate.\n";
    return 0;
}
