/**
 * @file
 * Unit tests for the Markov-N and RLE-N phase-change predictors
 * (paper sections 5.2.2-5.2.3): table learning, run-length indexed
 * prediction, the remove-on-false-change rule, confidence gating and
 * the Last-4 / Top-N payload views.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "common/status.hh"
#include "pred/change_predictor.hh"

using namespace tpcp;
using namespace tpcp::pred;

namespace
{

/** Feeds a repeating run pattern: phase ids with run lengths. */
void
feedPattern(ChangePredictor &p,
            const std::vector<std::pair<PhaseId, int>> &pattern,
            int repetitions)
{
    for (int rep = 0; rep < repetitions; ++rep) {
        for (const auto &[id, len] : pattern) {
            for (int i = 0; i < len; ++i)
                p.observe(id);
        }
    }
}

} // namespace

TEST(ChangePredictor, UnprimedPredictsNothing)
{
    ChangePredictor p(ChangePredictorConfig::rle(2));
    ChangePrediction pred = p.predict();
    EXPECT_FALSE(pred.tableHit);
}

TEST(ChangePredictor, TracksRunState)
{
    ChangePredictor p(ChangePredictorConfig::rle(1));
    p.observe(3);
    p.observe(3);
    p.observe(3);
    EXPECT_EQ(p.currentPhase(), 3u);
    EXPECT_EQ(p.currentRunLength(), 3u);
    p.observe(4);
    EXPECT_EQ(p.currentPhase(), 4u);
    EXPECT_EQ(p.currentRunLength(), 1u);
}

TEST(ChangePredictor, ObserveReturnsRecordOnlyAtChanges)
{
    ChangePredictor p(ChangePredictorConfig::rle(1));
    EXPECT_FALSE(p.observe(1).has_value()) << "priming";
    EXPECT_FALSE(p.observe(1).has_value()) << "stable";
    EXPECT_TRUE(p.observe(2).has_value()) << "change";
}

TEST(ChangePredictor, Rle1LearnsPeriodicPattern)
{
    // Pattern: 5 intervals of phase 1, 3 of phase 2, repeating.
    // After warmup, RLE-1 keyed on (phase, run-so-far) hits exactly
    // at the change points and predicts the right successor.
    ChangePredictor p(ChangePredictorConfig::rle(1));
    feedPattern(p, {{1, 5}, {2, 3}}, 3);

    // Now walk one more period checking predictions each interval.
    // The RLE key contains the current run length, so a table hit
    // fires exactly when the previous run has reached its full
    // length - i.e. just before observing the first interval of the
    // next phase (i == 0 below). A hit anywhere else would be a
    // false "change now" alarm.
    int correct_changes = 0, false_alarms = 0;
    for (const auto &[id, len] :
         std::vector<std::pair<PhaseId, int>>{{1, 5}, {2, 3}}) {
        for (int i = 0; i < len; ++i) {
            ChangePrediction pred = p.predict();
            if (pred.tableHit && pred.confident) {
                if (i == 0) {
                    if (pred.primary == id)
                        ++correct_changes;
                } else {
                    ++false_alarms;
                }
            }
            p.observe(id);
        }
    }
    EXPECT_EQ(correct_changes, 2)
        << "both changes in the period predicted";
    EXPECT_EQ(false_alarms, 0)
        << "no hit mid-run (run length is in the key)";
}

TEST(ChangePredictor, RemoveOnFalseChangeForPlainRle)
{
    ChangePredictor p(ChangePredictorConfig::rle(1));
    // Teach it that after 2 intervals of phase 1 comes phase 2.
    feedPattern(p, {{1, 2}, {2, 2}}, 2);
    // Now hold phase 1 for longer: at run length 2 there is a table
    // hit predicting a change, but the phase continues, so the entry
    // is removed (paper rule).
    p.observe(1);
    p.observe(1);           // run length 2 - entry fires
    p.observe(1);           // run continues - entry removed
    ChangePrediction pred = p.predict();
    // After returning to run length 2 next time, the entry is gone.
    p.observe(2);
    p.observe(1);
    p.observe(1);
    pred = p.predict();
    EXPECT_FALSE(pred.tableHit)
        << "the falsely-firing entry must have been removed";
}

TEST(ChangePredictor, MarkovConfidenceDecrementsInsteadOfRemoval)
{
    ChangePredictorConfig cfg = ChangePredictorConfig::markov(1);
    ChangePredictor p(cfg);
    feedPattern(p, {{1, 2}, {2, 2}}, 3);
    // Hold phase 1: the Markov entry (history {1}) hits every
    // interval; without removal it stays but loses confidence.
    p.observe(1);
    p.observe(1);
    p.observe(1);
    ChangePrediction pred = p.predict();
    EXPECT_TRUE(pred.tableHit) << "Markov entries are not removed";
    EXPECT_FALSE(pred.confident) << "but they lose confidence";
}

TEST(ChangePredictor, Markov1LearnsAlternation)
{
    ChangePredictor p(ChangePredictorConfig::markov(1));
    feedPattern(p, {{1, 4}, {2, 4}}, 4);
    // At any point while in phase 2, history {2} predicts change->1.
    p.observe(2);
    auto out = p.observe(1); // change 2->1
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->tableHit);
    EXPECT_TRUE(out->primaryCorrect);
}

TEST(ChangePredictor, Markov2UsesDeeperHistory)
{
    // Sequence of unique phases: 1,2,3,1,2,3,... Markov-2 history
    // {2,3} -> 1, {3,1} -> 2, {1,2} -> 3 disambiguates perfectly.
    ChangePredictor p(ChangePredictorConfig::markov(2));
    for (int rep = 0; rep < 6; ++rep) {
        for (PhaseId id : {1, 2, 3}) {
            p.observe(id);
            p.observe(id);
        }
    }
    int correct = 0, total = 0;
    for (PhaseId id : {1, 2, 3, 1, 2, 3}) {
        for (int i = 0; i < 2; ++i) {
            auto out = p.observe(id);
            if (out) {
                ++total;
                correct += out->primaryCorrect ? 1 : 0;
            }
        }
    }
    EXPECT_EQ(correct, total);
    EXPECT_GT(total, 3);
}

TEST(ChangePredictor, Last4AcceptsRecentOutcomes)
{
    // From phase 1, the successor cycles 2,3,4: a single-outcome
    // entry keeps mispredicting, but Last-4 accepts all of them.
    ChangePredictor p(
        ChangePredictorConfig::markov(1, PayloadView::Last4));
    for (int rep = 0; rep < 4; ++rep) {
        for (PhaseId succ : {2, 3, 4}) {
            p.observe(1);
            p.observe(1);
            p.observe(succ);
        }
    }
    int any_correct = 0, primary_correct = 0, total = 0;
    for (PhaseId succ : {2, 3, 4, 2, 3, 4}) {
        p.observe(1);
        p.observe(1);
        auto out = p.observe(succ);
        if (out && out->tableHit) {
            ++total;
            any_correct += out->anyCorrect ? 1 : 0;
            primary_correct += out->primaryCorrect ? 1 : 0;
        }
    }
    ASSERT_GT(total, 3);
    EXPECT_EQ(any_correct, total)
        << "all successors are among the last 4 unique outcomes";
    EXPECT_LT(primary_correct, total)
        << "the single last outcome keeps changing";
}

TEST(ChangePredictor, TopPayloadTracksMostFrequent)
{
    // Successor of phase 1 is usually 2 (3 of 4 times), sometimes 3.
    ChangePredictor p(
        ChangePredictorConfig::markov(1, PayloadView::Top1));
    for (int rep = 0; rep < 5; ++rep) {
        for (PhaseId succ : {2, 2, 2, 3}) {
            p.observe(1);
            p.observe(1);
            p.observe(succ);
        }
    }
    p.observe(1);
    p.observe(1);
    ChangePrediction pred = p.predict();
    ASSERT_TRUE(pred.tableHit);
    EXPECT_EQ(pred.primary, 2u) << "Top-1 is the most frequent";
}

TEST(ChangePredictor, Top4ListsUpToFourCandidates)
{
    ChangePredictor p(
        ChangePredictorConfig::markov(1, PayloadView::Top4));
    for (int rep = 0; rep < 3; ++rep) {
        for (PhaseId succ : {2, 3, 4, 5, 6}) {
            p.observe(1);
            p.observe(1);
            p.observe(succ);
        }
    }
    p.observe(1);
    p.observe(1);
    ChangePrediction pred = p.predict();
    ASSERT_TRUE(pred.tableHit);
    EXPECT_LE(pred.candidates.size(), 4u);
    EXPECT_GE(pred.candidates.size(), 3u);
}

TEST(ChangePredictor, ConfidenceGatesOnOneBit)
{
    ChangePredictor p(ChangePredictorConfig::rle(1));
    // First sighting of a change inserts with confidence 0.
    p.observe(1);
    p.observe(1);
    p.observe(2); // inserts entry for (1, run 2) -> 2
    p.observe(1);
    p.observe(1); // back at (1, run 2)
    ChangePrediction pred = p.predict();
    ASSERT_TRUE(pred.tableHit);
    EXPECT_FALSE(pred.confident) << "fresh entries are unconfident";
    p.observe(2); // correct: confidence -> 1
    p.observe(1);
    p.observe(1);
    pred = p.predict();
    ASSERT_TRUE(pred.tableHit);
    EXPECT_TRUE(pred.confident);
}

TEST(ChangePredictor, NoConfidenceModeAlwaysConfident)
{
    ChangePredictorConfig cfg = ChangePredictorConfig::rle(1);
    cfg.useConfidence = false;
    ChangePredictor p(cfg);
    p.observe(1);
    p.observe(1);
    p.observe(2);
    p.observe(1);
    p.observe(1);
    ChangePrediction pred = p.predict();
    ASSERT_TRUE(pred.tableHit);
    EXPECT_TRUE(pred.confident);
}

TEST(ChangePredictor, SmallTableEvicts)
{
    ChangePredictorConfig cfg = ChangePredictorConfig::rle(2);
    cfg.tableEntries = 4;
    cfg.tableWays = 4;
    ChangePredictor p(cfg);
    // Lots of distinct (phase, run-length) change contexts overflow
    // a 4-entry table without crashing.
    for (PhaseId id = 1; id <= 30; ++id) {
        for (PhaseId i = 0; i < 1 + id % 5; ++i)
            p.observe(id);
    }
    SUCCEED();
}

TEST(ChangePredictor, NamesAreDescriptive)
{
    EXPECT_EQ(ChangePredictorConfig::markov(2).name, "Markov-2");
    EXPECT_EQ(ChangePredictorConfig::rle(1).name, "RLE-1");
    EXPECT_EQ(
        ChangePredictorConfig::markov(1, PayloadView::Top4).name,
        "Top4 Markov-1");
    EXPECT_EQ(ChangePredictorConfig::rle(2, PayloadView::Last4, 128)
                  .name,
              "Last4 RLE-2 (128e)");
}

namespace
{

std::vector<std::uint8_t>
saved(const ChangePredictor &p)
{
    StateWriter w;
    p.saveState(w);
    return w.take();
}

/** A seeded stream of runs over 5 phases, 1-6 intervals long. */
std::vector<PhaseId>
runStream(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<PhaseId> out;
    while (out.size() < n) {
        const PhaseId id = 1 + rng.nextBounded(5);
        for (unsigned i = 1 + rng.nextBounded(6); i > 0; --i)
            out.push_back(id);
    }
    out.resize(n);
    return out;
}

void
expectSamePrediction(const ChangePrediction &a,
                     const ChangePrediction &b, std::size_t at)
{
    EXPECT_EQ(a.tableHit, b.tableHit) << "interval " << at;
    EXPECT_EQ(a.confident, b.confident) << "interval " << at;
    EXPECT_EQ(a.primary, b.primary) << "interval " << at;
    EXPECT_TRUE(a.candidates == b.candidates) << "interval " << at;
}

} // namespace

TEST(ChangePredictor, LoadRefusesMarkovHistoryLongerThanOrder)
{
    ChangePredictor deep(ChangePredictorConfig::markov(3));
    feedPattern(deep, {{1, 2}, {2, 1}, {3, 3}, {4, 1}}, 3);
    const std::vector<std::uint8_t> image = saved(deep);
    ChangePredictor same(ChangePredictorConfig::markov(3));
    StateReader ok(image);
    same.loadState(ok);

    ChangePredictor shallow(ChangePredictorConfig::markov(2));
    StateReader r(image);
    EXPECT_THROW(shallow.loadState(r), Error)
        << "Markov-2 keeps 2 unique IDs, the image holds 3";
}

TEST(ChangePredictor, LoadRefusesRleHistoryOfOrderRuns)
{
    ChangePredictor deep(ChangePredictorConfig::rle(3));
    feedPattern(deep, {{1, 2}, {2, 1}, {3, 3}}, 3);
    const std::vector<std::uint8_t> image = saved(deep);
    ChangePredictor same(ChangePredictorConfig::rle(3));
    StateReader ok(image);
    same.loadState(ok);

    ChangePredictor shallow(ChangePredictorConfig::rle(2));
    StateReader r(image);
    EXPECT_THROW(shallow.loadState(r), Error)
        << "RLE-2 keeps 1 completed run, the image holds 2";
}

/** Resuming at any mid-run interval rebuilds the cached history
 * hash: the resumed predictor (which had learned other state) then
 * predicts exactly like its uninterrupted twin and re-saves to the
 * same bytes. */
TEST(ChangePredictor, MidRunResumeMatchesUninterruptedTwin)
{
    const std::vector<PhaseId> stream = runStream(77, 300);
    const std::vector<PhaseId> other = runStream(78, 120);
    for (unsigned order = 1; order <= 4; ++order) {
        for (const ChangePredictorConfig &cfg :
             {ChangePredictorConfig::markov(order),
              ChangePredictorConfig::rle(order)}) {
            SCOPED_TRACE(cfg.name);
            for (std::size_t split = 40; split < 260; split += 23) {
                while (stream[split] != stream[split - 1])
                    ++split; // resume in the middle of a run
                ChangePredictor twin(cfg);
                for (std::size_t i = 0; i < split; ++i)
                    twin.observe(stream[i]);

                ChangePredictor resumed(cfg);
                for (PhaseId id : other)
                    resumed.observe(id);
                const std::vector<std::uint8_t> image = saved(twin);
                StateReader r(image);
                resumed.loadState(r);
                ASSERT_TRUE(r.atEnd());

                for (std::size_t i = split; i < stream.size(); ++i) {
                    expectSamePrediction(twin.predict(),
                                         resumed.predict(), i);
                    EXPECT_EQ(twin.observe(stream[i]).has_value(),
                              resumed.observe(stream[i]).has_value());
                }
                EXPECT_EQ(saved(twin), saved(resumed));
            }
        }
    }
}
