/**
 * @file
 * Figure-8 extension sweep: the geometric-history (TAGE) and
 * perceptron predictors against the paper's best table configs,
 * per workload, plus confidence-gating coverage-vs-accuracy curves.
 *
 * Three products:
 *  - a per-workload table of phase-change prediction rates for the
 *    paper's best Markov/RLE configs, the two new predictors and the
 *    perfect-Markov-1 upper bound, with the fraction of the
 *    remaining gap to perfect that the best new predictor closes;
 *  - coverage-vs-accuracy curves swept over the TAGE confidence
 *    threshold and the perceptron margin (the confidence gate trades
 *    coverage for confident accuracy, Figure-8 style);
 *  - a JSON dump of all of the above (--json, default
 *    fig8_sweep.json).
 *
 * --check-improve is the CI tripwire: exit 1 unless the best new
 * predictor's aggregate correct rate beats the RLE-2 baseline.
 *
 * Deterministic at any --jobs: every cell is a pure function of one
 * (workload, predictor) pair and results merge in grid order.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "common/json.hh"
#include "pred/eval.hh"

using namespace tpcp;
using pred::ChangeOutcomeStats;
using pred::PredictorSpec;

namespace
{

/** The compared predictors, in column order: the paper's strongest
 * table configs first, then the new geometric/perceptron ones. */
const std::vector<std::string> kSpecNames = {
    "markov1", "rle2", "top4markov1", "last4markov1",
    "tage",    "perceptron",
};

std::string
toJson(const ChangeOutcomeStats &s)
{
    std::string out = "{";
    appendField(out, "changes", s.changes);
    appendField(out, "correct_rate", s.correctRate());
    appendField(out, "conf_correct_rate", s.confidentCorrectRate());
    appendField(out, "conf_correct", s.confCorrect);
    appendField(out, "unconf_correct", s.unconfCorrect);
    appendField(out, "tag_miss", s.tagMiss);
    appendField(out, "unconf_incorrect", s.unconfIncorrect);
    appendField(out, "conf_incorrect", s.confIncorrect, true);
    return out + "}";
}

/** Coverage of the confidence gate: confident fraction of changes.
 * Guarded for constant-phase traces with no changes at all. */
double
coverage(const ChangeOutcomeStats &s)
{
    return s.changes
               ? static_cast<double>(s.confCorrect +
                                     s.confIncorrect) /
                     static_cast<double>(s.changes)
               : 0.0;
}

/** Accuracy among confident predictions only (guarded: a fully
 * ungated or changeless trace has no confident predictions). */
double
confAccuracy(const ChangeOutcomeStats &s)
{
    std::uint64_t conf = s.confCorrect + s.confIncorrect;
    return conf ? static_cast<double>(s.confCorrect) /
                      static_cast<double>(conf)
                : 0.0;
}

/** One confidence-sweep point: the swept @p knob's value, then the
 * gate's coverage and accuracy. */
std::string
sweepPointJson(const char *knob, unsigned value,
               const ChangeOutcomeStats &s)
{
    std::string out = "{";
    appendField(out, knob, value);
    appendField(out, "coverage", coverage(s));
    appendField(out, "conf_accuracy", confAccuracy(s));
    appendField(out, "correct_rate", s.correctRate(), true);
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args = cli::parseArgs(
        argc, argv,
        {cli::jsonFlag("the sweep", "fig8_sweep.json"),
         {"check-improve", "",
          "exit 1 unless the best new predictor's aggregate "
          "correct rate beats the RLE-2 baseline (CI tripwire)"},
         cli::traceFlag()});

    bench::banner("Figure 8 sweep",
                  "TAGE / perceptron vs the paper's tables");
    auto profiles = analysis::loadWorkloads(args);

    phase::ClassifierConfig ccfg =
        phase::ClassifierConfig::paperDefault();
    auto classified =
        analysis::runGrid(profiles, {ccfg}, args.jobs);
    std::vector<std::string> names;
    std::vector<std::vector<PhaseId>> traces;
    for (analysis::ClassificationResult &res : classified) {
        names.push_back(res.workload);
        traces.push_back(std::move(res.trace.phases));
    }
    const std::size_t W = names.size(), P = kSpecNames.size();

    // One cell per (workload, predictor).
    auto cells = analysis::runIndexed(
        W * P, args.jobs, [&](std::size_t i) {
            const auto spec =
                pred::predictorSpecByName(kSpecNames[i % P]);
            return pred::evalChangeOutcome(traces[i / P], *spec);
        });
    auto perfect = analysis::runIndexed(
        W, args.jobs, [&](std::size_t w) {
            return pred::evalPerfectMarkov(traces[w], 1);
        });

    // Confidence sweeps: TAGE entry-confidence threshold and
    // perceptron margin, aggregated over all workloads per setting.
    const std::vector<unsigned> tageThresholds = {0, 1, 2, 3};
    const std::vector<unsigned> percMargins = {0, 2, 4, 8,
                                               16, 24, 32};
    auto tageSweep = analysis::runIndexed(
        tageThresholds.size(), args.jobs, [&](std::size_t i) {
            pred::TagePredictorConfig tcfg;
            tcfg.confThreshold = tageThresholds[i];
            ChangeOutcomeStats agg;
            for (const auto &trace : traces)
                agg.merge(pred::evalChangeOutcome(
                    trace, PredictorSpec::tageSpec(tcfg)));
            return agg;
        });
    auto percSweep = analysis::runIndexed(
        percMargins.size(), args.jobs, [&](std::size_t i) {
            pred::PerceptronPredictorConfig pcfg;
            pcfg.confMargin = percMargins[i];
            ChangeOutcomeStats agg;
            for (const auto &trace : traces)
                agg.merge(pred::evalChangeOutcome(
                    trace, PredictorSpec::perceptronSpec(pcfg)));
            return agg;
        });

    // Per-workload table. "best table" is the strongest paper
    // config on that workload; "gap closed" the fraction of its
    // remaining distance to perfect Markov-1 the best new
    // predictor recovers.
    std::vector<std::string> headers = {"workload", "changes"};
    for (const std::string &n : kSpecNames)
        headers.push_back(n);
    headers.push_back("perfect M1");
    headers.push_back("gap closed");
    AsciiTable table(headers);
    ChangeOutcomeStats aggRle2, aggTage, aggPerc;
    for (std::size_t w = 0; w < W; ++w) {
        auto at = [&](const std::string &n) -> const
            ChangeOutcomeStats & {
                for (std::size_t p = 0; p < P; ++p)
                    if (kSpecNames[p] == n)
                        return cells[w * P + p];
                static const ChangeOutcomeStats none;
                return none;
            };
        aggRle2.merge(at("rle2"));
        aggTage.merge(at("tage"));
        aggPerc.merge(at("perceptron"));
        double bestTable = 0.0;
        for (std::size_t p = 0; p < P; ++p)
            if (kSpecNames[p] != "tage" &&
                kSpecNames[p] != "perceptron")
                bestTable = std::max(
                    bestTable, cells[w * P + p].correctRate());
        double bestNew =
            std::max(at("tage").correctRate(),
                     at("perceptron").correctRate());
        double gap = perfect[w].coverage() - bestTable;
        double closed =
            gap > 0.0 ? (bestNew - bestTable) / gap : 0.0;
        AsciiTable &row = table.row();
        row.cell(names[w]).cell(cells[w * P].changes);
        for (std::size_t p = 0; p < P; ++p)
            row.percentCell(cells[w * P + p].correctRate());
        row.percentCell(perfect[w].coverage());
        row.percentCell(closed);
    }
    table.print(std::cout);

    std::cout << "\nConfidence sweep (aggregate coverage vs "
                 "accuracy among confident):\n";
    AsciiTable sweep({"predictor", "setting", "coverage",
                      "conf accuracy", "correct"});
    for (std::size_t i = 0; i < tageThresholds.size(); ++i)
        sweep.row()
            .cell("tage")
            .cell(std::uint64_t(tageThresholds[i]))
            .percentCell(coverage(tageSweep[i]))
            .percentCell(confAccuracy(tageSweep[i]))
            .percentCell(tageSweep[i].correctRate());
    for (std::size_t i = 0; i < percMargins.size(); ++i)
        sweep.row()
            .cell("perceptron")
            .cell(std::uint64_t(percMargins[i]))
            .percentCell(coverage(percSweep[i]))
            .percentCell(confAccuracy(percSweep[i]))
            .percentCell(percSweep[i].correctRate());
    sweep.print(std::cout);

    std::string json = "{\n  \"workloads\": [\n";
    for (std::size_t w = 0; w < W; ++w) {
        json += "    {";
        appendField(json, "workload", names[w]);
        appendField(json, "perfect_markov1", perfect[w].coverage());
        appendKey(json, "predictors");
        json += "{";
        for (std::size_t p = 0; p < P; ++p) {
            appendKey(json, kSpecNames[p].c_str());
            json += toJson(cells[w * P + p]);
            json += p + 1 < P ? ", " : "";
        }
        json += w + 1 < W ? "}},\n" : "}}\n";
    }
    json += "  ],\n  \"sweep\": {\n    \"tage\": [";
    for (std::size_t i = 0; i < tageThresholds.size(); ++i)
        json += (i ? ", " : "") +
                sweepPointJson("conf_threshold", tageThresholds[i],
                               tageSweep[i]);
    json += "],\n    \"perceptron\": [";
    for (std::size_t i = 0; i < percMargins.size(); ++i)
        json += (i ? ", " : "") +
                sweepPointJson("conf_margin", percMargins[i],
                               percSweep[i]);
    json += "]\n  },\n  \"aggregate\": {";
    appendKey(json, "rle2");
    json += toJson(aggRle2) + ", ";
    appendKey(json, "tage");
    json += toJson(aggTage) + ", ";
    appendKey(json, "perceptron");
    json += toJson(aggPerc) + "}\n}\n";
    if (!cli::writeJson(args, json, "", "fig8_sweep.json", std::cout,
                        "\n"))
        return 1;

    double bestNewAgg = std::max(aggTage.correctRate(),
                                 aggPerc.correctRate());
    std::printf("\naggregate: rle2 %.1f%%  tage %.1f%%  "
                "perceptron %.1f%%\n",
                100.0 * aggRle2.correctRate(),
                100.0 * aggTage.correctRate(),
                100.0 * aggPerc.correctRate());
    if (args.has("check-improve") &&
        bestNewAgg <= aggRle2.correctRate()) {
        std::fprintf(stderr,
                     "FAIL: best new predictor (%.6f) does not "
                     "beat RLE-2 (%.6f)\n",
                     bestNewAgg, aggRle2.correctRate());
        return 1;
    }
    return 0;
}
