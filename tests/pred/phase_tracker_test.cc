/**
 * @file
 * Tests for the full phase-tracking unit (classifier + predictors
 * behind the online interface), fed the way hardware would feed it:
 * an accumulator table filled from the committed branches, one
 * snapshot per interval.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "phase/accumulator_table.hh"
#include "phase/phase_trace.hh"
#include "pred/phase_tracker.hh"

using namespace tpcp;
using namespace tpcp::pred;

namespace
{

/** Accumulates one interval's worth of branches for a code shape
 * and hands the snapshot, with @p cpi, to the tracker. */
PhaseTrackerOutput
runInterval(PhaseTracker &tracker, unsigned shape, Rng &rng, double cpi,
            int branches = 200)
{
    phase::AccumulatorTable acc(
        tracker.classifier().config().numCounters);
    for (int b = 0; b < branches; ++b) {
        Addr pc = 0x10000 * (shape + 1) + 4 * rng.nextBounded(12);
        acc.recordBranch(pc, 13);
    }
    return tracker.onIntervalRaw(acc.counters(), acc.totalIncrement(),
                                 cpi);
}

PhaseTrackerConfig
quickConfig()
{
    PhaseTrackerConfig cfg;
    cfg.classifier.minCountThreshold = 2; // fast stabilization
    return cfg;
}

} // namespace

TEST(PhaseTracker, ClassifiesAndCounts)
{
    PhaseTracker tracker(quickConfig());
    Rng rng(std::uint64_t{1});
    for (int i = 0; i < 10; ++i)
        runInterval(tracker, 0, rng, 1.0);
    EXPECT_EQ(tracker.intervals(), 10u);
    EXPECT_EQ(tracker.classifier().numStablePhases(), 1u);
}

TEST(PhaseTracker, ReportsPhaseChanges)
{
    PhaseTracker tracker(quickConfig());
    Rng rng(std::uint64_t{2});
    std::vector<bool> changes;
    for (int i = 0; i < 24; ++i) {
        unsigned shape = (i / 6) % 2;
        changes.push_back(
            runInterval(tracker, shape, rng, 1.0 + shape).phaseChanged);
    }
    // Interval 0 inserts (transition, sighting 1); interval 1 is the
    // min_count == 2nd sighting and promotes — a phase change. The
    // stable dwell starts at interval 2.
    EXPECT_FALSE(changes[2]) << "stable dwell";
    int total_changes = 0;
    for (bool c : changes)
        total_changes += c ? 1 : 0;
    EXPECT_GE(total_changes, 3) << "dwell switches every 6 intervals";
    EXPECT_LE(total_changes, 8);
}

TEST(PhaseTracker, NextPhasePredictionTracksStability)
{
    PhaseTracker tracker(quickConfig());
    Rng rng(std::uint64_t{3});
    PhaseTrackerOutput out;
    for (int i = 0; i < 20; ++i)
        out = runInterval(tracker, 0, rng, 1.0);
    // After 20 stable intervals, the prediction is the stable phase
    // with last-value confidence.
    EXPECT_EQ(out.nextPhase.phase, out.classification.phase);
    EXPECT_TRUE(out.nextPhase.source ==
                    PredictionSource::LastValue &&
                out.nextPhase.lvConfident);
}

TEST(PhaseTracker, LengthPredictionAppearsAfterChanges)
{
    PhaseTracker tracker(quickConfig());
    Rng rng(std::uint64_t{4});
    std::optional<unsigned> cls;
    for (int rep = 0; rep < 4; ++rep) {
        for (int i = 0; i < 8; ++i)
            runInterval(tracker, 0, rng, 1.0);
        for (int i = 0; i < 4; ++i)
            cls = runInterval(tracker, 1, rng, 2.0).currentRunLengthClass;
    }
    ASSERT_TRUE(cls.has_value())
        << "a standing length prediction exists after changes";
    EXPECT_LT(*cls, phase::numRunLengthClasses);
}

TEST(PhaseTracker, DefaultConfigIsPaperConfig)
{
    PhaseTrackerConfig cfg;
    EXPECT_EQ(cfg.classifier.numCounters, 16u);
    EXPECT_EQ(cfg.classifier.tableEntries, 32u);
    EXPECT_DOUBLE_EQ(cfg.classifier.similarityThreshold, 0.25);
    EXPECT_EQ(cfg.classifier.minCountThreshold, 8u);
    EXPECT_TRUE(cfg.classifier.adaptiveThreshold);
    EXPECT_EQ(cfg.changeTable.kind, PredictorKind::Table);
    EXPECT_EQ(cfg.changeTable.table.history, HistoryKind::Rle);
    EXPECT_EQ(cfg.changeTable.table.order, 2u);
    EXPECT_EQ(cfg.changeTable.table.tableEntries, 32u);
    EXPECT_EQ(cfg.lastValue.confBits, 3u);
    EXPECT_EQ(cfg.lastValue.confThreshold, 6u);
}
