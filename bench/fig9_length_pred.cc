/**
 * @file
 * Figure 9: phase-length prediction. Left: the distribution of phase
 * run lengths over the four classes (1-15, 16-127, 128-1023, >= 1024
 * intervals). Right: the misprediction rate of the 32-entry 4-way
 * RLE-2 run-length-class predictor with hysteresis.
 *
 * Expected shape (paper): most programs have >= 90% of their runs in
 * the shortest class; gzip and perl transition into long phases
 * often; misprediction rates are low (a few percent).
 */

#include <iostream>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "phase/phase_trace.hh"
#include "pred/eval.hh"

using namespace tpcp;

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv, {cli::traceFlag()});
    bench::banner("Figure 9",
                  "Run-length classes and phase length prediction");
    auto profiles = analysis::loadWorkloads(args);

    phase::ClassifierConfig ccfg =
        phase::ClassifierConfig::paperDefault();
    auto results = analysis::runGrid(profiles, {ccfg}, args.jobs);

    AsciiTable dist({"workload", "1-15", "16-127", "128-1023",
                     "1024-", "runs"});
    AsciiTable mispred({"workload", "mispredict rate", "predictions"});
    std::vector<double> miss_rates;

    for (std::size_t w = 0; w < profiles.size(); ++w) {
        const std::string &name = profiles[w].first;
        const analysis::ClassificationResult &res = results[w];
        pred::RunLengthStats stats =
            pred::evalRunLength(res.trace.phases);

        dist.row().cell(name);
        for (unsigned cls = 0; cls < phase::numRunLengthClasses;
             ++cls)
            dist.percentCell(stats.classFraction(cls));
        dist.cell(stats.totalRuns);

        mispred.row()
            .cell(name)
            .percentCell(stats.mispredictRate())
            .cell(stats.predictions);
        miss_rates.push_back(stats.mispredictRate());
    }
    mispred.row().cell("avg").percentCell(bench::mean(miss_rates))
        .cell("");

    std::cout << "Percentage of runs per run-length class (all "
                 "phases, including transition):\n";
    dist.print(std::cout);
    std::cout << "\nRLE-2 run-length-class misprediction rate "
                 "(hysteresis, no confidence):\n";
    mispred.print(std::cout);
    std::cout << "\nPaper shape check: the 1-15 class dominates for "
                 "most programs; gzip/g\nand perl/d transition into "
                 "long runs; misprediction rates stay in the\nlow "
                 "single digits.\n";
    return 0;
}
