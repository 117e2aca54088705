/**
 * @file
 * Figure 2: per-phase CPI CoV and number of phases detected for
 * different numbers of Signature Table entries (16, 32, 64 and
 * unbounded), using the [25]-style configuration: 32 accumulator
 * counters, 12.5% similarity threshold, no transition phase.
 *
 * Expected shape (paper): the number of phases detected decreases
 * dramatically as table entries increase (evictions lose signatures,
 * so behaviors get re-discovered under fresh phase IDs); CPI CoV
 * increases slightly with more entries.
 */

#include <iostream>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"

using namespace tpcp;

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv, {cli::traceFlag()});
    bench::banner("Figure 2",
                  "CPI CoV and phase count vs signature-table size");
    auto profiles = analysis::loadWorkloads(args);

    const unsigned entry_configs[] = {16, 32, 64, 0}; // 0 = unbounded
    auto label = [](unsigned e) {
        return e == 0 ? std::string("inf")
                      : std::to_string(e) + " entry";
    };

    std::vector<phase::ClassifierConfig> configs;
    for (unsigned entries : entry_configs) {
        phase::ClassifierConfig cfg;
        cfg.numCounters = 32;
        cfg.similarityThreshold = 0.125;
        cfg.minCountThreshold = 0;
        cfg.tableEntries = entries;
        configs.push_back(cfg);
    }
    auto results = analysis::runGrid(profiles, configs, args.jobs);

    AsciiTable cov({"workload", "16 entry CoV", "32 entry CoV",
                    "64 entry CoV", "inf CoV"});
    AsciiTable phases({"workload", "16 entry", "32 entry", "64 entry",
                       "inf"});
    std::vector<std::vector<double>> cov_cols(4);
    std::vector<std::vector<double>> phase_cols(4);

    for (std::size_t w = 0; w < profiles.size(); ++w) {
        cov.row().cell(profiles[w].first);
        phases.row().cell(profiles[w].first);
        for (std::size_t c = 0; c < 4; ++c) {
            const analysis::ClassificationResult &res =
                results[w * configs.size() + c];
            cov.percentCell(res.covCpi);
            phases.cell(static_cast<std::uint64_t>(res.numPhases));
            cov_cols[c].push_back(res.covCpi);
            phase_cols[c].push_back(
                static_cast<double>(res.numPhases));
        }
    }
    cov.row().cell("avg");
    phases.row().cell("avg");
    for (std::size_t c = 0; c < 4; ++c) {
        cov.percentCell(bench::mean(cov_cols[c]));
        phases.cell(bench::mean(phase_cols[c]), 1);
    }

    std::cout << "CPI CoV (std dev / mean, weighted per phase):\n";
    cov.print(std::cout);
    std::cout << "\nNumber of phase IDs generated ("
              << label(0) << " = unbounded table):\n";
    phases.print(std::cout);
    std::cout << "\nPaper shape check: phases(16) > phases(32) > "
                 "phases(64) > phases(inf);\nCoV grows slightly with "
                 "table size.\n";
    return 0;
}
