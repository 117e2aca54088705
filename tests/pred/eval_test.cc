/**
 * @file
 * Unit tests for the prediction evaluation drivers (the machinery
 * behind Figures 7, 8 and 9), run on hand-built phase traces with
 * known statistics.
 */

#include <gtest/gtest.h>

#include <vector>

#include "pred/eval.hh"
#include "pred/next_phase_predictor.hh"

using namespace tpcp;
using namespace tpcp::pred;

namespace
{

/** Builds a periodic trace of (phase, run length) pairs. */
std::vector<PhaseId>
periodicTrace(const std::vector<std::pair<PhaseId, int>> &period,
              int repetitions)
{
    std::vector<PhaseId> out;
    for (int rep = 0; rep < repetitions; ++rep) {
        for (const auto &[id, len] : period) {
            for (int i = 0; i < len; ++i)
                out.push_back(id);
        }
    }
    return out;
}

} // namespace

TEST(EvalNextPhase, ConstantTraceAllCorrect)
{
    std::vector<PhaseId> trace(100, 5);
    NextPhaseStats s = evalNextPhase(trace, std::nullopt);
    EXPECT_EQ(s.total, 99u) << "first interval primes";
    EXPECT_EQ(s.correct(), 99u);
    EXPECT_EQ(s.phaseChanges, 0u);
    EXPECT_DOUBLE_EQ(s.accuracy(), 1.0);
}

TEST(EvalNextPhase, LastValueAccuracyMatchesChangeRate)
{
    // Runs of 4: one change per 4 intervals -> 25% miss rate, the
    // paper's quoted interval-transition change rate.
    auto trace = periodicTrace({{1, 4}, {2, 4}}, 25);
    NextPhaseStats s = evalNextPhase(trace, std::nullopt);
    EXPECT_NEAR(s.accuracy(), 0.75, 0.01);
    EXPECT_NEAR(static_cast<double>(s.phaseChanges) /
                    static_cast<double>(s.total),
                0.25, 0.01);
}

TEST(EvalNextPhase, CategoriesSumToTotal)
{
    auto trace = periodicTrace({{1, 7}, {2, 2}, {3, 5}}, 12);
    NextPhaseStats s = evalNextPhase(
        trace, PredictorSpec::tableSpec(ChangePredictorConfig::rle(2)));
    EXPECT_EQ(s.correctTable + s.incorrectTable + s.correctLvConf +
                  s.correctLvUnconf + s.incorrectLvUnconf +
                  s.incorrectLvConf,
              s.total);
}

TEST(EvalNextPhase, RlePredictorBeatsLastValueOnPeriodicTrace)
{
    auto trace = periodicTrace({{1, 5}, {2, 3}}, 40);
    NextPhaseStats lv = evalNextPhase(trace, std::nullopt);
    NextPhaseStats rle = evalNextPhase(
        trace, PredictorSpec::tableSpec(ChangePredictorConfig::rle(1)));
    EXPECT_GT(rle.accuracy(), lv.accuracy())
        << "RLE should predict the periodic changes";
    EXPECT_GT(rle.correctTable, 0u);
}

TEST(EvalNextPhase, ConfidenceImprovesAccuracyCutsCoverage)
{
    // A noisy-ish trace: mostly stable with periodic changes.
    auto trace = periodicTrace({{1, 8}, {2, 1}, {1, 6}, {3, 2}}, 20);
    NextPhaseStats s = evalNextPhase(trace, std::nullopt);
    EXPECT_LT(s.confidentCoverage(), 1.0);
    EXPECT_GT(s.confidentAccuracy(), s.accuracy())
        << "confidence filters the unpredictable intervals";
}

TEST(EvalNextPhase, MergeAddsUp)
{
    auto t1 = periodicTrace({{1, 4}, {2, 4}}, 10);
    auto t2 = periodicTrace({{1, 2}, {2, 2}}, 10);
    NextPhaseStats a = evalNextPhase(t1, std::nullopt);
    NextPhaseStats b = evalNextPhase(t2, std::nullopt);
    NextPhaseStats m = a;
    m.merge(b);
    EXPECT_EQ(m.total, a.total + b.total);
    EXPECT_EQ(m.correct(), a.correct() + b.correct());
}

TEST(EvalChangeOutcome, CountsOnlyChanges)
{
    auto trace = periodicTrace({{1, 9}, {2, 1}}, 20);
    ChangeOutcomeStats s = evalChangeOutcome(
        trace, PredictorSpec::tableSpec(ChangePredictorConfig::rle(2)));
    EXPECT_EQ(s.changes, 39u) << "2 changes per period, minus prime";
    EXPECT_EQ(s.confCorrect + s.unconfCorrect + s.tagMiss +
                  s.unconfIncorrect + s.confIncorrect,
              s.changes);
}

TEST(EvalChangeOutcome, PeriodicTraceMostlyCovered)
{
    auto trace = periodicTrace({{1, 5}, {2, 3}}, 50);
    ChangeOutcomeStats s = evalChangeOutcome(
        trace, PredictorSpec::tableSpec(ChangePredictorConfig::rle(1)));
    EXPECT_GT(s.correctRate(), 0.8);
}

TEST(EvalChangeOutcome, Top4AcceptsAnyFrequentSuccessor)
{
    // Phase 1's successor rotates among 2,3,4: Top-1 style
    // correctness is poor, Top-4 style is near perfect.
    std::vector<PhaseId> trace;
    for (int rep = 0; rep < 30; ++rep) {
        for (PhaseId succ : {2, 3, 4}) {
            for (int i = 0; i < 3; ++i)
                trace.push_back(1);
            trace.push_back(succ);
        }
    }
    ChangeOutcomeStats top1 = evalChangeOutcome(
        trace, PredictorSpec::tableSpec(ChangePredictorConfig::markov(
                   1, PayloadView::Top1)));
    ChangeOutcomeStats top4 = evalChangeOutcome(
        trace, PredictorSpec::tableSpec(ChangePredictorConfig::markov(
                   1, PayloadView::Top4)));
    EXPECT_GT(top4.correctRate(), top1.correctRate() + 0.2);
}

TEST(EvalPerfectMarkov, UpperBoundsRealPredictor)
{
    auto trace = periodicTrace({{1, 5}, {2, 3}, {3, 2}, {2, 6}}, 25);
    PerfectMarkovStats perfect = evalPerfectMarkov(trace, 1);
    ChangeOutcomeStats real = evalChangeOutcome(
        trace, PredictorSpec::tableSpec(ChangePredictorConfig::markov(1)));
    EXPECT_GE(perfect.coverage() + 1e-9, real.correctRate())
        << "no real predictor can beat the perfect model";
}

TEST(EvalPerfectMarkov, ColdStartOnlyMisses)
{
    auto trace = periodicTrace({{1, 3}, {2, 3}}, 50);
    PerfectMarkovStats s = evalPerfectMarkov(trace, 1);
    EXPECT_EQ(s.changes - s.seenBefore, 2u)
        << "exactly the two distinct transitions are cold";
}

TEST(EvalRunLength, DistributionCounted)
{
    auto trace = periodicTrace({{1, 5}, {2, 20}}, 10);
    RunLengthStats s = evalRunLength(trace);
    EXPECT_EQ(s.totalRuns, 20u);
    EXPECT_EQ(s.classCounts[0], 10u);
    EXPECT_EQ(s.classCounts[1], 10u);
    EXPECT_DOUBLE_EQ(s.classFraction(0), 0.5);
}

TEST(EvalRunLength, PeriodicTraceLowMisprediction)
{
    auto trace = periodicTrace({{1, 5}, {2, 20}}, 20);
    RunLengthStats s = evalRunLength(trace);
    EXPECT_GT(s.predictions, 20u);
    EXPECT_LT(s.mispredictRate(), 0.15);
}

TEST(EvalRunLength, MergeAddsUp)
{
    auto t = periodicTrace({{1, 5}, {2, 20}}, 5);
    RunLengthStats a = evalRunLength(t);
    RunLengthStats b = evalRunLength(t);
    a.merge(b);
    EXPECT_EQ(a.totalRuns, 20u);
    EXPECT_EQ(a.classCounts[0] + a.classCounts[1], 20u);
}

TEST(NextPhasePredictor, MatchesAcceptAnySemantics)
{
    NextPhasePrediction pred;
    pred.source = PredictionSource::ChangeTable;
    pred.phase = 2;
    pred.candidates = {2, 3, 4};
    EXPECT_TRUE(pred.matches(3, true));
    EXPECT_FALSE(pred.matches(3, false));
    EXPECT_TRUE(pred.matches(2, false));
    pred.source = PredictionSource::LastValue;
    EXPECT_FALSE(pred.matches(3, true))
        << "accept-any only applies to table predictions";
}
