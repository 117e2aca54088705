/**
 * @file
 * Figure 8: phase-change prediction. For each predictor, the
 * breakdown of *phase-change* outcomes into confident-correct,
 * unconfident-correct, tag misses, unconfident-incorrect and
 * confident-incorrect, plus the perfect-Markov upper bounds.
 *
 * Expected shape (paper): plain Markov-2 predicts ~40% of changes
 * (18% mispredictions); confidence cuts mispredictions to ~5% but
 * coverage to ~19%; Top-4/Last-4 predictors reach 50-65%; perfect
 * Markov-1 tops out near 80% because of cold-start changes.
 */

#include <iostream>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "pred/eval.hh"

using namespace tpcp;
using pred::ChangePredictorConfig;
using pred::PayloadView;
using pred::PredictorSpec;

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv, {cli::traceFlag()});
    bench::banner("Figure 8", "Phase Change Prediction");
    auto profiles = analysis::loadWorkloads(args);

    phase::ClassifierConfig ccfg =
        phase::ClassifierConfig::paperDefault();
    auto classified =
        analysis::runGrid(profiles, {ccfg}, args.jobs);
    std::vector<std::vector<PhaseId>> traces;
    for (analysis::ClassificationResult &res : classified)
        traces.push_back(std::move(res.trace.phases));

    std::vector<PredictorSpec> bars;
    for (const ChangePredictorConfig &cfg :
         {ChangePredictorConfig::markov(2, PayloadView::Last, 128),
          ChangePredictorConfig::markov(2),
          ChangePredictorConfig::markov(1),
          ChangePredictorConfig::markov(2, PayloadView::Last4),
          ChangePredictorConfig::markov(1, PayloadView::Last4),
          ChangePredictorConfig::markov(2, PayloadView::Top1),
          ChangePredictorConfig::markov(1, PayloadView::Top4),
          ChangePredictorConfig::markov(2, PayloadView::Top4),
          ChangePredictorConfig::rle(2, PayloadView::Last, 128),
          ChangePredictorConfig::rle(2),
          ChangePredictorConfig::rle(2, PayloadView::Last4),
          ChangePredictorConfig::rle(1, PayloadView::Last4),
          ChangePredictorConfig::rle(2, PayloadView::Top1),
          ChangePredictorConfig::rle(1, PayloadView::Top4),
          ChangePredictorConfig::rle(2, PayloadView::Top4)})
        bars.push_back(PredictorSpec::tableSpec(cfg));
    bars.push_back(PredictorSpec::tageSpec());
    bars.push_back(PredictorSpec::perceptronSpec());

    AsciiTable table({"predictor", "conf corr", "unconf corr",
                      "tag miss", "unconf inc", "conf inc",
                      "correct", "conf mispred"});
    auto aggs = analysis::runIndexed(
        bars.size(), args.jobs, [&](std::size_t b) {
            pred::ChangeOutcomeStats agg;
            for (const auto &trace : traces)
                agg.merge(pred::evalChangeOutcome(trace, bars[b]));
            return agg;
        });
    for (std::size_t b = 0; b < bars.size(); ++b) {
        const pred::ChangeOutcomeStats &agg = aggs[b];
        double t = static_cast<double>(agg.changes);
        auto pct = [&](std::uint64_t v) {
            return t ? static_cast<double>(v) / t : 0.0;
        };
        table.row()
            .cell(bars[b].displayName())
            .percentCell(pct(agg.confCorrect))
            .percentCell(pct(agg.unconfCorrect))
            .percentCell(pct(agg.tagMiss))
            .percentCell(pct(agg.unconfIncorrect))
            .percentCell(pct(agg.confIncorrect))
            .percentCell(agg.correctRate())
            .percentCell(pct(agg.confIncorrect));
    }
    for (unsigned order : {1u, 2u}) {
        pred::PerfectMarkovStats agg;
        for (const auto &trace : traces)
            agg.merge(pred::evalPerfectMarkov(trace, order));
        table.row()
            .cell("Perfect Markov-" + std::to_string(order))
            .percentCell(agg.coverage())
            .cell("")
            .percentCell(1.0 - agg.coverage())
            .cell("")
            .cell("")
            .percentCell(agg.coverage())
            .cell("");
    }
    table.print(std::cout);
    std::cout << "\nAll percentages are fractions of phase changes "
                 "(Top-4/Last-4 accept any\nof their candidates as "
                 "correct). Perfect Markov rows mark a change as\n"
                 "covered when the same (history -> outcome) was seen "
                 "before; their miss\nrate is pure cold start.\n";
    return 0;
}
