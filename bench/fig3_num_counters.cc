/**
 * @file
 * Figure 3: CPI CoV and number of phases detected for different
 * numbers of signature counters (8, 16, 32, 64 dimensions), with the
 * whole-program CoV for reference. 32-entry LRU table, 12.5%
 * similarity threshold.
 *
 * Expected shape (paper): 8 counters are clearly insufficient (CoV
 * close to whole-program); 16+ counters give good classifications;
 * whole-program CoV is high (the motivation for phase analysis).
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
    bench::banner("Figure 3",
                  "CPI CoV and phase count vs signature counters");
    auto profiles = analysis::loadWorkloads(args);

    const unsigned dim_configs[] = {8, 16, 32, 64};

    std::vector<phase::ClassifierConfig> configs;
    for (unsigned dims : dim_configs) {
        phase::ClassifierConfig cfg;
        cfg.numCounters = dims;
        cfg.similarityThreshold = 0.125;
        cfg.minCountThreshold = 0;
        cfg.tableEntries = 32;
        configs.push_back(cfg);
    }
    auto results = analysis::runGrid(profiles, configs, args.jobs);

    AsciiTable cov({"workload", "8 dim", "16 dim", "32 dim", "64 dim",
                    "Whole Program"});
    AsciiTable phases({"workload", "8 dim", "16 dim", "32 dim",
                       "64 dim"});
    std::vector<std::vector<double>> cov_cols(5);
    std::vector<std::vector<double>> phase_cols(4);

    for (std::size_t w = 0; w < profiles.size(); ++w) {
        cov.row().cell(profiles[w].first);
        phases.row().cell(profiles[w].first);
        double whole = 0.0;
        for (std::size_t c = 0; c < 4; ++c) {
            const analysis::ClassificationResult &res =
                results[w * configs.size() + c];
            cov.percentCell(res.covCpi);
            phases.cell(static_cast<std::uint64_t>(res.numPhases));
            cov_cols[c].push_back(res.covCpi);
            phase_cols[c].push_back(
                static_cast<double>(res.numPhases));
            whole = res.wholeProgramCov;
        }
        cov.percentCell(whole);
        cov_cols[4].push_back(whole);
    }
    cov.row().cell("avg");
    phases.row().cell("avg");
    for (std::size_t c = 0; c < 5; ++c)
        cov.percentCell(bench::mean(cov_cols[c]));
    for (std::size_t c = 0; c < 4; ++c)
        phases.cell(bench::mean(phase_cols[c]), 1);

    std::cout << "CPI CoV by signature dimensionality:\n";
    cov.print(std::cout);
    std::cout << "\nNumber of phase IDs generated:\n";
    phases.print(std::cout);
    std::cout << "\nPaper shape check: 8 dims insufficient (CoV much "
                 "higher than 16+);\nclassification cuts whole-program "
                 "CoV by roughly an order of magnitude.\n";
    return 0;
}
