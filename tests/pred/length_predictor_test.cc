/**
 * @file
 * Unit tests for run-length-class prediction (paper section 6.2):
 * RLE-2 indexed table, hysteresis and default-class behavior.
 */

#include <gtest/gtest.h>

#include "common/state_io.hh"
#include "common/status.hh"
#include "pred/length_predictor.hh"

using namespace tpcp;
using namespace tpcp::pred;

namespace
{

/** Feeds runs of (phase, length) pairs; returns all records. */
std::vector<LengthPredRecord>
feed(RunLengthPredictor &p,
     const std::vector<std::pair<PhaseId, int>> &runs)
{
    std::vector<LengthPredRecord> out;
    for (const auto &[id, len] : runs) {
        for (int i = 0; i < len; ++i) {
            auto rec = p.observe(id);
            if (rec)
                out.push_back(*rec);
        }
    }
    return out;
}

} // namespace

TEST(LengthPredictor, NoRecordBeforeFirstPredictedRunCompletes)
{
    RunLengthPredictor p;
    // First run has no prediction (no history); the record appears
    // only when the *second* run (the first predicted one) ends.
    auto recs = feed(p, {{1, 3}, {2, 4}});
    EXPECT_TRUE(recs.empty());
    auto rec = p.observe(3); // completes run of phase 2
    ASSERT_TRUE(rec.has_value());
}

TEST(LengthPredictor, DefaultClassOnTableMiss)
{
    LengthPredictorConfig cfg;
    cfg.defaultClass = 0;
    RunLengthPredictor p(cfg);
    feed(p, {{1, 3}, {2, 4}});
    auto rec = p.observe(3);
    ASSERT_TRUE(rec.has_value());
    EXPECT_FALSE(rec->tableHit);
    EXPECT_EQ(rec->predictedClass, 0u);
    EXPECT_EQ(rec->actualClass, 0u) << "run of 4 is class 0";
    EXPECT_TRUE(rec->correct());
}

TEST(LengthPredictor, LearnsStableLongRuns)
{
    RunLengthPredictor p;
    // Periodic pattern: phase 1 runs 40 intervals (class 1), phase 2
    // runs 5 (class 0). After warmup the predictor should hit.
    std::vector<std::pair<PhaseId, int>> period = {{1, 40}, {2, 5}};
    feed(p, {period[0], period[1], period[0], period[1],
             period[0], period[1]});
    auto recs = feed(p, {period[0], period[1], period[0]});
    ASSERT_GE(recs.size(), 2u);
    for (const auto &r : recs) {
        EXPECT_TRUE(r.tableHit);
        EXPECT_TRUE(r.correct())
            << "predicted " << r.predictedClass << " actual "
            << r.actualClass;
    }
}

TEST(LengthPredictor, HysteresisFiltersOneOffNoise)
{
    // Order 1 keeps the table key stable ((2,5) completed run) while
    // the predicted phase-1 run length varies, isolating the
    // hysteresis behavior. (With order 2 a noisy run also perturbs
    // subsequent keys, which is correct but tests something else.)
    LengthPredictorConfig cfg;
    cfg.order = 1;
    RunLengthPredictor p(cfg);
    feed(p, {{1, 40}, {2, 5}, {1, 40}, {2, 5}, {1, 40}, {2, 5}});
    // One noisy short phase-1 run, then back to 40s: the entry must
    // keep predicting class 1 (needs two-in-a-row to change).
    feed(p, {{1, 3}, {2, 5}});
    auto recs = feed(p, {{1, 40}, {2, 5}, {1, 40}});
    bool found = false;
    for (const auto &r : recs) {
        if (r.actualClass == 1 && r.tableHit) {
            found = true;
            EXPECT_EQ(r.predictedClass, 1u)
                << "one-off noise must not retrain the entry";
        }
    }
    EXPECT_TRUE(found);
}

TEST(LengthPredictor, AdoptsClassSeenTwiceInARow)
{
    LengthPredictorConfig cfg;
    cfg.order = 1;
    RunLengthPredictor p(cfg);
    feed(p, {{1, 40}, {2, 5}, {1, 40}, {2, 5}});
    // The phase-1 run length genuinely changes to class 0; after two
    // sightings in a row the entry retrains.
    feed(p, {{1, 3}, {2, 5}, {1, 3}, {2, 5}});
    auto recs = feed(p, {{1, 3}, {2, 5}, {1, 3}});
    bool checked = false;
    for (const auto &r : recs) {
        if (r.actualClass == 0 && r.tableHit) {
            checked = true;
            EXPECT_EQ(r.predictedClass, 0u);
        }
    }
    EXPECT_TRUE(checked);
}

TEST(LengthPredictor, FinishFlushesOpenRun)
{
    RunLengthPredictor p;
    feed(p, {{1, 3}, {2, 4}, {1, 3}});
    auto rec = p.finish();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->actualClass, 0u);
    EXPECT_FALSE(p.finish().has_value()) << "finish is idempotent";
}

TEST(LengthPredictor, ClassBoundariesExercised)
{
    RunLengthPredictor p;
    feed(p, {{1, 10}, {2, 20}, {3, 200}});
    auto rec = p.observe(4); // completes the 200-run (class 2)
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->actualClass, 2u);
}

TEST(LengthPredictor, LoadRefusesMoreThanEightRuns)
{
    // observe() keeps the last 8 completed runs; an image holding 9
    // is no state a run reaches.
    auto image = [](unsigned runs) {
        StateWriter w;
        w.u64(32); // slots of the default 32-entry table
        for (int i = 0; i < 32; ++i) {
            w.b(false);
            w.u64(0);
            w.u64(0);
            w.u8(0);
            w.u8(0);
        }
        w.u64(0); // use tick
        w.b(true);
        w.u32(1);
        w.u64(3);
        w.u64(runs);
        for (unsigned i = 0; i < runs; ++i) {
            w.u32(1 + i % 2);
            w.u64(2 + i);
        }
        w.b(false);
        w.u64(0);
        w.u32(0);
        w.b(false);
        return w.take();
    };
    const std::vector<std::uint8_t> eightRuns = image(8);
    const std::vector<std::uint8_t> nineRuns = image(9);
    RunLengthPredictor p;
    StateReader eight(eightRuns);
    p.loadState(eight);
    EXPECT_TRUE(eight.atEnd());
    StateReader nine(nineRuns);
    EXPECT_THROW(p.loadState(nine), Error);
}
