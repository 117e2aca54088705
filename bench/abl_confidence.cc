/**
 * @file
 * Confidence-counter configuration sweep (paper section 5.1: "We
 * experimented with a variety of confidence counter configurations
 * ... but due to space constraints we only show one configuration").
 * This harness shows the ones the paper left out: last-value
 * confidence accuracy/coverage across counter widths and thresholds,
 * averaged over all workloads.
 */

#include <iostream>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "pred/eval.hh"

using namespace tpcp;

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv, {cli::traceFlag()});
    bench::banner("Ablation",
                  "Last-value confidence-counter configurations");
    auto profiles = analysis::loadWorkloads(args);

    phase::ClassifierConfig ccfg =
        phase::ClassifierConfig::paperDefault();
    auto classified =
        analysis::runGrid(profiles, {ccfg}, args.jobs);
    std::vector<std::vector<PhaseId>> traces;
    for (analysis::ClassificationResult &res : classified)
        traces.push_back(std::move(res.trace.phases));

    struct Config
    {
        unsigned bits;
        unsigned threshold;
    };
    const Config configs[] = {
        {1, 1}, {2, 2}, {2, 3}, {3, 4}, {3, 6}, {3, 7}, {4, 12},
        {4, 15},
    };

    AsciiTable table({"conf bits", "threshold", "accuracy",
                      "conf accuracy", "conf coverage"});
    for (const Config &c : configs) {
        pred::LastValueConfig lv;
        lv.confBits = c.bits;
        lv.confThreshold = c.threshold;
        pred::NextPhaseStats agg;
        for (const auto &trace : traces)
            agg.merge(pred::evalNextPhase(trace, std::nullopt, lv));
        table.row()
            .cell(static_cast<std::uint64_t>(c.bits))
            .cell(static_cast<std::uint64_t>(c.threshold))
            .percentCell(agg.accuracy())
            .percentCell(agg.confidentAccuracy())
            .percentCell(agg.confidentCoverage());
    }
    table.print(std::cout);
    std::cout << "\nThe paper's pick (3 bits, threshold 6 - one "
                 "below saturation) sits on the\nknee: higher "
                 "thresholds buy little accuracy for a lot of "
                 "coverage.\n";
    return 0;
}
