/**
 * @file
 * Unit tests for last-value prediction with per-phase confidence
 * counters (paper section 5.1).
 */

#include <gtest/gtest.h>

#include "common/state_io.hh"
#include "common/status.hh"
#include "pred/last_value.hh"

using namespace tpcp;
using namespace tpcp::pred;

TEST(LastValue, UnprimedInitially)
{
    LastValuePredictor p;
    EXPECT_FALSE(p.primed());
    EXPECT_FALSE(p.confident());
}

TEST(LastValue, PredictsLastObserved)
{
    LastValuePredictor p;
    p.observe(7);
    EXPECT_TRUE(p.primed());
    EXPECT_EQ(p.predict(), 7u);
    p.observe(9);
    EXPECT_EQ(p.predict(), 9u);
}

TEST(LastValue, ConfidenceBuildsOverStableRun)
{
    LastValuePredictor p; // 3 bits, threshold 6
    p.observe(1);
    EXPECT_FALSE(p.confident());
    // 5 correct last-value outcomes: counter 5, still unconfident.
    for (int i = 0; i < 5; ++i)
        p.observe(1);
    EXPECT_FALSE(p.confident());
    p.observe(1); // counter 6: confident
    EXPECT_TRUE(p.confident());
}

TEST(LastValue, ConfidenceDropsOnChange)
{
    LastValuePredictor p;
    for (int i = 0; i < 10; ++i)
        p.observe(1);
    EXPECT_TRUE(p.confident());
    p.observe(2); // phase 1's counter decremented; now in phase 2
    EXPECT_FALSE(p.confident()) << "phase 2 starts unconfident";
    p.observe(1); // back in phase 1
    EXPECT_TRUE(p.confident()) << "phase 1 counter was 7-1=6";
    p.observe(2);
    p.observe(1);
    EXPECT_FALSE(p.confident())
        << "repeated changes demote phase 1 below threshold";
}

TEST(LastValue, UnstablePhaseNeverConfident)
{
    LastValuePredictor p;
    for (int i = 0; i < 40; ++i)
        p.observe(static_cast<PhaseId>(i % 2 + 1));
    EXPECT_FALSE(p.confident())
        << "alternating phases keep counters down";
}

TEST(LastValue, CustomThreshold)
{
    LastValueConfig cfg;
    cfg.confBits = 2;
    cfg.confThreshold = 2;
    LastValuePredictor p(cfg);
    p.observe(1);
    p.observe(1);
    p.observe(1);
    EXPECT_TRUE(p.confident());
}

TEST(LastValue, TransitionPhaseIsAPhaseToo)
{
    // The paper treats the transition phase like any other phase for
    // prediction purposes.
    LastValuePredictor p;
    for (int i = 0; i < 8; ++i)
        p.observe(transitionPhaseId);
    EXPECT_EQ(p.predict(), transitionPhaseId);
    EXPECT_TRUE(p.confident());
}

TEST(LastValue, SaveLoadKeepsCurrentPhaseCounter)
{
    LastValuePredictor a;
    for (PhaseId id : {1, 1, 2, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2})
        a.observe(id);
    StateWriter w;
    a.saveState(w);
    LastValuePredictor b;
    b.observe(9);
    StateReader r(w.buffer());
    b.loadState(r);
    EXPECT_EQ(b.confident(), a.confident());
    for (PhaseId id : {2, 2, 2, 1, 1}) {
        a.observe(id);
        b.observe(id);
        EXPECT_EQ(b.confident(), a.confident());
    }
    StateWriter wa, wb;
    a.saveState(wa);
    b.saveState(wb);
    EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(LastValue, LoadRefusesPrimedStateWithoutItsPhaseCounter)
{
    // observe() always leaves a counter for the phase it saw last.
    StateWriter w;
    w.u32(5);  // last phase
    w.b(true); // primed
    w.u64(1);
    w.u32(3); // a counter for another phase only
    w.u64(2);
    LastValuePredictor p;
    StateReader r(w.buffer());
    EXPECT_THROW(p.loadState(r), Error);
}
