/**
 * @file
 * Ablation (paper section 4.1, classification step): first-match vs
 * best-match selection when multiple table signatures satisfy the
 * similarity threshold. The paper states that choosing the most
 * similar signature improves phase homogeneity; this harness
 * quantifies that claim on our workloads.
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
    bench::banner("Ablation", "First-match vs best-match selection");
    auto profiles = analysis::loadWorkloads(args);

    phase::ClassifierConfig cfg;
    cfg.numCounters = 16;
    cfg.tableEntries = 32;
    cfg.similarityThreshold = 0.25;
    cfg.minCountThreshold = 8;
    cfg.matchPolicy = phase::MatchPolicy::FirstMatch;
    phase::ClassifierConfig best_cfg = cfg;
    best_cfg.matchPolicy = phase::MatchPolicy::BestMatch;
    auto results =
        analysis::runGrid(profiles, {cfg, best_cfg}, args.jobs);

    AsciiTable table({"workload", "first CoV", "best CoV",
                      "first phases", "best phases"});
    std::vector<double> first_cov, best_cov;
    for (std::size_t w = 0; w < profiles.size(); ++w) {
        const analysis::ClassificationResult &first =
            results[w * 2];
        const analysis::ClassificationResult &best =
            results[w * 2 + 1];

        table.row()
            .cell(profiles[w].first)
            .percentCell(first.covCpi)
            .percentCell(best.covCpi)
            .cell(static_cast<std::uint64_t>(first.numPhases))
            .cell(static_cast<std::uint64_t>(best.numPhases));
        first_cov.push_back(first.covCpi);
        best_cov.push_back(best.covCpi);
    }
    table.row()
        .cell("avg")
        .percentCell(bench::mean(first_cov))
        .percentCell(bench::mean(best_cov))
        .cell("")
        .cell("");
    table.print(std::cout);
    std::cout << "\nClaim check (section 4.1): best-match CoV <= "
                 "first-match CoV on average.\n";
    return 0;
}
