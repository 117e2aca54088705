/**
 * @file
 * Property-based sweeps over the phase-change predictor
 * configuration space: accounting invariants that must hold for
 * every (history kind, order, payload, table size, confidence)
 * combination on randomized phase traces.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "pred/eval.hh"
#include "subgrid.hh"

using namespace tpcp;
using namespace tpcp::pred;

namespace
{

/** (historyIsRle, order, payload, entries, useConfidence). */
using Params =
    std::tuple<bool, unsigned, PayloadView, unsigned, bool>;

// The grid's axes besides the two booleans.
constexpr unsigned kOrders[] = {1, 2, 3};
constexpr PayloadView kPayloads[] = {PayloadView::Last, PayloadView::Last4,
                                     PayloadView::Top1, PayloadView::Top4};
constexpr unsigned kEntries[] = {16, 32, 128};

std::string
gridName(const ::testing::TestParamInfo<Params> &info)
{
    std::string p;
    switch (std::get<2>(info.param)) {
      case PayloadView::Last:
        p = "Last";
        break;
      case PayloadView::Last4:
        p = "Last4";
        break;
      case PayloadView::Top1:
        p = "Top1";
        break;
      case PayloadView::Top4:
        p = "Top4";
        break;
    }
    return std::string(std::get<0>(info.param) ? "Rle" : "Markov") +
           std::to_string(std::get<1>(info.param)) + "_" + p + "_e" +
           std::to_string(std::get<3>(info.param)) +
           (std::get<4>(info.param) ? "_conf" : "_raw");
}

ChangePredictorConfig
configFor(const Params &params)
{
    auto [rle, order, payload, entries, conf] = params;
    ChangePredictorConfig cfg =
        rle ? ChangePredictorConfig::rle(order, payload, entries)
            : ChangePredictorConfig::markov(order, payload, entries);
    cfg.useConfidence = conf;
    return cfg;
}

std::vector<PhaseId>
randomTrace(std::uint64_t seed, std::size_t n = 600,
            unsigned phases = 8, double change_prob = 0.2)
{
    Rng rng(seed);
    std::vector<PhaseId> trace;
    PhaseId cur = 1;
    for (std::size_t i = 0; i < n; ++i) {
        trace.push_back(cur);
        if (rng.nextBool(change_prob))
            cur = 1 + rng.nextBounded(phases);
    }
    return trace;
}

class PredictorProperties : public ::testing::TestWithParam<Params>
{
  protected:
    ChangePredictorConfig config() const { return configFor(GetParam()); }
};

/** Without confidence every table hit is confident, so the property
 * runs on the grid's no-confidence half only. */
void
noConfidenceMeansNoUnconfidentResults(const Params &params)
{
    const PredictorSpec spec = PredictorSpec::tableSpec(configFor(params));
    auto trace = randomTrace(5);
    ChangeOutcomeStats s = evalChangeOutcome(trace, spec);
    EXPECT_EQ(s.unconfCorrect, 0u);
    EXPECT_EQ(s.unconfIncorrect, 0u)
        << "without confidence every table hit is 'confident'";
}

std::vector<Params>
noConfidencePoints()
{
    std::vector<Params> points;
    for (bool rle : {false, true})
        for (unsigned order : kOrders)
            for (PayloadView payload : kPayloads)
                for (unsigned entries : kEntries)
                    points.emplace_back(rle, order, payload, entries,
                                        false);
    return points;
}

const bool kNoConfidenceRegistered =
    test::registerOnSubgrid<PredictorProperties>(
        "Grid/PredictorProperties",
        "NoConfidenceMeansNoUnconfidentResults", noConfidencePoints(),
        gridName, noConfidenceMeansNoUnconfidentResults);

} // namespace

TEST_P(PredictorProperties, ChangeOutcomeCategoriesPartition)
{
    const PredictorSpec spec = PredictorSpec::tableSpec(config());
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        auto trace = randomTrace(seed);
        ChangeOutcomeStats s = evalChangeOutcome(trace, spec);
        EXPECT_EQ(s.confCorrect + s.unconfCorrect + s.tagMiss +
                      s.unconfIncorrect + s.confIncorrect,
                  s.changes)
            << "categories must partition the changes";
        EXPECT_GE(s.correctRate(), 0.0);
        EXPECT_LE(s.correctRate(), 1.0);
    }
}

TEST_P(PredictorProperties, NextPhaseCategoriesPartition)
{
    auto trace = randomTrace(11);
    NextPhaseStats s =
        evalNextPhase(trace, PredictorSpec::tableSpec(config()));
    EXPECT_EQ(s.total, trace.size() - 1);
    EXPECT_EQ(s.correctTable + s.incorrectTable + s.correctLvConf +
                  s.correctLvUnconf + s.incorrectLvUnconf +
                  s.incorrectLvConf,
              s.total);
    EXPECT_GE(s.confidentCoverage(), 0.0);
    EXPECT_LE(s.confidentCoverage(), 1.0);
}

TEST_P(PredictorProperties, AnyCorrectSupersetOfPrimary)
{
    ChangePredictorConfig cfg = config();
    ChangePredictor p(cfg);
    auto trace = randomTrace(17);
    for (PhaseId id : trace) {
        auto out = p.observe(id);
        if (out && out->tableHit) {
            // Primary-correct implies any-correct.
            if (out->primaryCorrect) {
                EXPECT_TRUE(out->anyCorrect);
            }
        }
    }
}

TEST_P(PredictorProperties, DeterministicReplay)
{
    const PredictorSpec spec = PredictorSpec::tableSpec(config());
    auto trace = randomTrace(23);
    ChangeOutcomeStats a = evalChangeOutcome(trace, spec);
    ChangeOutcomeStats b = evalChangeOutcome(trace, spec);
    EXPECT_EQ(a.changes, b.changes);
    EXPECT_EQ(a.confCorrect, b.confCorrect);
    EXPECT_EQ(a.tagMiss, b.tagMiss);
}

TEST_P(PredictorProperties, CandidateCountBounded)
{
    ChangePredictorConfig cfg = config();
    ChangePredictor p(cfg);
    auto trace = randomTrace(29, 600, 12, 0.35);
    for (PhaseId id : trace) {
        ChangePrediction pred = p.predict();
        if (pred.tableHit) {
            EXPECT_GE(pred.candidates.size(), 1u);
            EXPECT_LE(pred.candidates.size(), 4u);
        }
        p.observe(id);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PredictorProperties,
    ::testing::Combine(::testing::Bool(),            // RLE vs Markov
                       ::testing::ValuesIn(kOrders), // order
                       ::testing::ValuesIn(kPayloads),
                       ::testing::ValuesIn(kEntries),
                       ::testing::Bool()),           // confidence
    gridName);
