/**
 * @file
 * Figure 7: next-phase prediction. For each predictor, the breakdown
 * of next-interval predictions into: correct/incorrect change-table
 * predictions and correct/incorrect last-value fallbacks split by
 * last-value confidence. Averaged over all workloads; classifier is
 * the paper's preferred configuration (16 counters, 32 entries, 25%
 * similarity, min count 8, 25% CPI deviation).
 *
 * Expected shape (paper): last-value prediction is ~75% accurate (25%
 * of interval transitions change phase); Markov and RLE tables add
 * only a few percent; confidence trades coverage for accuracy (the
 * paper reports 80% accuracy at 70% coverage).
 */

#include <iostream>
#include <optional>

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
    bench::banner("Figure 7", "Next Phase Prediction");
    auto profiles = analysis::loadWorkloads(args);

    phase::ClassifierConfig ccfg =
        phase::ClassifierConfig::paperDefault();

    // Classify every workload once; predictors replay the traces.
    auto classified =
        analysis::runGrid(profiles, {ccfg}, args.jobs);
    std::vector<std::vector<PhaseId>> traces;
    for (analysis::ClassificationResult &res : classified)
        traces.push_back(std::move(res.trace.phases));

    struct Bar
    {
        std::string label;
        std::optional<PredictorSpec> spec;
    };
    auto tbl = [](const ChangePredictorConfig &cfg) {
        return PredictorSpec::tableSpec(cfg);
    };
    std::vector<Bar> bars;
    bars.push_back({"Last Value", std::nullopt});
    bars.push_back({"Markov-1",
                    tbl(ChangePredictorConfig::markov(1))});
    bars.push_back({"Markov-2",
                    tbl(ChangePredictorConfig::markov(2))});
    bars.push_back({"Last4 Markov-1",
                    tbl(ChangePredictorConfig::markov(
                        1, PayloadView::Last4))});
    bars.push_back({"Last4 Markov-2",
                    tbl(ChangePredictorConfig::markov(
                        2, PayloadView::Last4))});
    {
        ChangePredictorConfig no_conf =
            ChangePredictorConfig::markov(2);
        no_conf.useConfidence = false;
        no_conf.name = "Markov-2 NoTableConf";
        bars.push_back({"Markov-2 NoTableConf", tbl(no_conf)});
    }
    bars.push_back({"RLE-1", tbl(ChangePredictorConfig::rle(1))});
    bars.push_back({"RLE-2", tbl(ChangePredictorConfig::rle(2))});
    bars.push_back({"Last4 RLE-1",
                    tbl(ChangePredictorConfig::rle(
                        1, PayloadView::Last4))});
    bars.push_back({"Last4 RLE-2",
                    tbl(ChangePredictorConfig::rle(
                        2, PayloadView::Last4))});
    {
        ChangePredictorConfig no_conf = ChangePredictorConfig::rle(2);
        no_conf.useConfidence = false;
        no_conf.name = "RLE-2 NoConf";
        bars.push_back({"RLE-2 NoConf", tbl(no_conf)});
    }
    bars.push_back({"TAGE", PredictorSpec::tageSpec()});
    bars.push_back({"Perceptron", PredictorSpec::perceptronSpec()});

    AsciiTable table({"predictor", "corr table", "corr lv conf",
                      "corr lv unconf", "inc lv unconf",
                      "inc lv conf", "inc table", "accuracy",
                      "conf acc", "conf cover"});
    auto aggs = analysis::runIndexed(
        bars.size(), args.jobs, [&](std::size_t b) {
            pred::NextPhaseStats agg;
            for (const auto &trace : traces)
                agg.merge(pred::evalNextPhase(trace, bars[b].spec));
            return agg;
        });
    for (std::size_t b = 0; b < bars.size(); ++b) {
        const Bar &bar = bars[b];
        const pred::NextPhaseStats &agg = aggs[b];
        double t = static_cast<double>(agg.total);
        auto pct = [&](std::uint64_t v) {
            return t ? static_cast<double>(v) / t : 0.0;
        };
        table.row()
            .cell(bar.label)
            .percentCell(pct(agg.correctTable))
            .percentCell(pct(agg.correctLvConf))
            .percentCell(pct(agg.correctLvUnconf))
            .percentCell(pct(agg.incorrectLvUnconf))
            .percentCell(pct(agg.incorrectLvConf))
            .percentCell(pct(agg.incorrectTable))
            .percentCell(agg.accuracy())
            .percentCell(agg.confidentAccuracy())
            .percentCell(agg.confidentCoverage());
    }
    table.print(std::cout);

    // Context row: how often adjacent intervals change phase.
    pred::NextPhaseStats lv;
    for (const auto &trace : traces)
        lv.merge(pred::evalNextPhase(trace, std::nullopt));
    // Guarded: a constant-phase (or empty) trace set has no
    // transitions to take a percentage of.
    const double change_pct =
        lv.total ? 100.0 * static_cast<double>(lv.phaseChanges) /
                       static_cast<double>(lv.total)
                 : 0.0;
    std::cout << "\nFraction of interval transitions that change "
                 "phase: "
              << change_pct << "%\n";
    std::cout << "Paper shape check: last value ~75% accurate; "
                 "Markov/RLE add a few\npercent; confidence raises "
                 "accuracy on covered intervals at the cost of\n"
                 "coverage (paper: ~80% accuracy at ~70% coverage).\n";
    return 0;
}
