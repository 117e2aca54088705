/**
 * @file
 * Figure 5: average stable and transition phase lengths (in
 * intervals), with standard deviations, under the 25%-similarity /
 * min-count-8 classifier.
 *
 * Expected shape (paper): stable runs are much longer than transition
 * runs for all programs except gcc; gzip/graphic and perl/diffmail
 * have exceptionally long average stable runs.
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
    bench::banner("Figure 5",
                  "Average stable and transition phase lengths");
    auto profiles = analysis::loadWorkloads(args);

    phase::ClassifierConfig cfg;
    cfg.numCounters = 16;
    cfg.tableEntries = 32;
    cfg.similarityThreshold = 0.25;
    cfg.minCountThreshold = 8;
    auto results = analysis::runGrid(profiles, {cfg}, args.jobs);

    AsciiTable table({"workload", "stable avg", "stable stddev",
                      "stable runs", "trans avg", "trans stddev",
                      "trans runs"});
    std::vector<double> stable_avgs, trans_avgs;
    for (std::size_t w = 0; w < profiles.size(); ++w) {
        const analysis::ClassificationResult &res = results[w];
        const analysis::RunLengthSummary &rl = res.runLengths;
        table.row()
            .cell(profiles[w].first)
            .cell(rl.stableAvg, 1)
            .cell(rl.stableStddev, 1)
            .cell(rl.stableRuns)
            .cell(rl.transitionAvg, 1)
            .cell(rl.transitionStddev, 1)
            .cell(rl.transitionRuns);
        stable_avgs.push_back(rl.stableAvg);
        trans_avgs.push_back(rl.transitionAvg);
    }
    table.row()
        .cell("avg")
        .cell(bench::mean(stable_avgs), 1)
        .cell("")
        .cell("")
        .cell(bench::mean(trans_avgs), 1)
        .cell("")
        .cell("");
    table.print(std::cout);
    std::cout << "\nPaper shape check: stable runs longer and more "
                 "variable than transition\nruns everywhere except "
                 "gcc; gzip/g and perl/d have exceptionally long\n"
                 "stable runs.\n";
    return 0;
}
