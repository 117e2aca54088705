/**
 * @file
 * Unit tests for the phase classifier: the paper's classification
 * algorithm including the transition phase (section 4.4), best-match
 * selection, phase-ID allocation, LRU-driven ID growth (Figure 2
 * effect) and adaptive threshold halving (section 4.6).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "common/status.hh"
#include "phase/classifier.hh"

using namespace tpcp;
using namespace tpcp::phase;

namespace
{

constexpr unsigned kDims = 16;
constexpr InstCount kTotal = 100'000;

/** A raw accumulator vector with mass concentrated by @p shape. */
std::vector<std::uint32_t>
rawFor(unsigned shape, double noise = 0.0, std::uint64_t salt = 0)
{
    Rng rng(salt * 977 + shape);
    std::vector<std::uint32_t> raw(kDims, 0);
    // Three heavy buckets per shape, distinct across shapes.
    unsigned h0 = (shape * 5 + 1) % kDims;
    unsigned h1 = (shape * 5 + 7) % kDims;
    unsigned h2 = (shape * 5 + 11) % kDims;
    raw[h0] = 50'000;
    raw[h1] = 30'000;
    raw[h2] = 20'000;
    if (noise > 0.0) {
        for (auto &c : raw) {
            double f = 1.0 + noise * (rng.nextDouble() - 0.5);
            c = static_cast<std::uint32_t>(c * f);
        }
    }
    return raw;
}

ClassifierConfig
baseConfig()
{
    ClassifierConfig cfg;
    cfg.numCounters = kDims;
    cfg.tableEntries = 32;
    cfg.similarityThreshold = 0.25;
    cfg.minCountThreshold = 0;
    cfg.adaptiveThreshold = false;
    return cfg;
}

} // namespace

TEST(Classifier, FirstIntervalAllocatesPhaseWithoutMinCount)
{
    PhaseClassifier c(baseConfig());
    ClassifyResult r = c.classifyRaw(rawFor(0), kTotal, 1.0);
    EXPECT_TRUE(r.inserted);
    EXPECT_EQ(r.phase, firstStablePhaseId);
    EXPECT_EQ(c.numStablePhases(), 1u);
}

TEST(Classifier, SameCodeSamePhase)
{
    PhaseClassifier c(baseConfig());
    PhaseId first =
        c.classifyRaw(rawFor(0), kTotal, 1.0).phase;
    for (int i = 1; i < 10; ++i) {
        ClassifyResult r = c.classifyRaw(rawFor(0, 0.05, i), kTotal,
                                         1.0);
        EXPECT_TRUE(r.matched);
        EXPECT_EQ(r.phase, first);
    }
    EXPECT_EQ(c.numStablePhases(), 1u);
}

TEST(Classifier, DifferentCodeDifferentPhases)
{
    PhaseClassifier c(baseConfig());
    PhaseId a = c.classifyRaw(rawFor(0), kTotal, 1.0).phase;
    PhaseId b = c.classifyRaw(rawFor(1), kTotal, 2.0).phase;
    PhaseId d = c.classifyRaw(rawFor(2), kTotal, 3.0).phase;
    EXPECT_NE(a, b);
    EXPECT_NE(b, d);
    EXPECT_EQ(c.numStablePhases(), 3u);
}

TEST(Classifier, PhasesReappearWithSameId)
{
    PhaseClassifier c(baseConfig());
    PhaseId a1 = c.classifyRaw(rawFor(0), kTotal, 1.0).phase;
    c.classifyRaw(rawFor(1), kTotal, 2.0);
    PhaseId a2 = c.classifyRaw(rawFor(0, 0.05, 3), kTotal, 1.0).phase;
    EXPECT_EQ(a1, a2) << "a phase may reappear many times (paper 1)";
}

TEST(Classifier, TransitionPhaseUntilMinCount)
{
    ClassifierConfig cfg = baseConfig();
    cfg.minCountThreshold = 4;
    PhaseClassifier c(cfg);
    // The inserting interval is sighting 1 (paper section 4.1: the
    // signature must be "seen min_count times"); insert + 2 matches
    // are still transition.
    EXPECT_EQ(c.classifyRaw(rawFor(0), kTotal, 1.0).phase,
              transitionPhaseId);
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(c.classifyRaw(rawFor(0, 0.03, i), kTotal, 1.0)
                      .phase,
                  transitionPhaseId)
            << "match " << i;
    }
    // The 3rd match is the 4th sighting: real phase ID.
    ClassifyResult r = c.classifyRaw(rawFor(0, 0.03, 9), kTotal, 1.0);
    EXPECT_EQ(r.phase, firstStablePhaseId);
    EXPECT_EQ(c.numStablePhases(), 1u);
    EXPECT_EQ(c.stats().transitionIntervals, 3u);
}

TEST(Classifier, MinCountOnePromotesAtInsertion)
{
    // With minCountThreshold == 1 a signature has been "seen once"
    // the moment it is inserted, so the very first interval of a new
    // behavior already gets a stable phase ID. (Pre-fix, promotion
    // needed minCountThreshold + 1 sightings: the inserting interval
    // was not counted.)
    ClassifierConfig cfg = baseConfig();
    cfg.minCountThreshold = 1;
    PhaseClassifier c(cfg);
    ClassifyResult r = c.classifyRaw(rawFor(0), kTotal, 1.0);
    EXPECT_TRUE(r.inserted);
    EXPECT_EQ(r.phase, firstStablePhaseId);
    EXPECT_EQ(c.stats().transitionIntervals, 0u);
    EXPECT_EQ(c.numStablePhases(), 1u);
}

TEST(Classifier, InfrequentBehaviorStaysInTransition)
{
    ClassifierConfig cfg = baseConfig();
    cfg.minCountThreshold = 8;
    PhaseClassifier c(cfg);
    // Many distinct one-off signatures: all transition, no stable
    // phase IDs allocated (the paper's table-pressure win).
    for (unsigned shape = 0; shape < 12; ++shape) {
        ClassifyResult r =
            c.classifyRaw(rawFor(shape), kTotal, 1.0);
        EXPECT_EQ(r.phase, transitionPhaseId);
    }
    EXPECT_EQ(c.numStablePhases(), 0u);
    EXPECT_DOUBLE_EQ(c.stats().transitionFraction(), 1.0);
}

TEST(Classifier, MinCountZeroDisablesTransitionPhase)
{
    PhaseClassifier c(baseConfig());
    for (unsigned shape = 0; shape < 5; ++shape)
        c.classifyRaw(rawFor(shape), kTotal, 1.0);
    EXPECT_EQ(c.stats().transitionIntervals, 0u);
    EXPECT_EQ(c.numStablePhases(), 5u);
}

TEST(Classifier, EvictionRegeneratesPhaseIds)
{
    // The Figure-2 effect: a small table loses signatures and hands
    // out fresh IDs when behaviors recur.
    ClassifierConfig cfg = baseConfig();
    cfg.tableEntries = 2;
    PhaseClassifier small(cfg);
    cfg.tableEntries = 0;
    PhaseClassifier unbounded(cfg);

    for (int round = 0; round < 4; ++round) {
        for (unsigned shape = 0; shape < 4; ++shape) {
            small.classifyRaw(rawFor(shape), kTotal, 1.0);
            unbounded.classifyRaw(rawFor(shape), kTotal, 1.0);
        }
    }
    EXPECT_EQ(unbounded.numStablePhases(), 4u);
    EXPECT_GT(small.numStablePhases(), 8u)
        << "evictions force re-allocation of phase IDs";
}

TEST(Classifier, BestMatchChoosesMostSimilar)
{
    ClassifierConfig cfg = baseConfig();
    cfg.similarityThreshold = 0.9; // everything matches everything
    PhaseClassifier c(cfg);
    PhaseId a = c.classifyRaw(rawFor(0), kTotal, 1.0).phase;
    // rawFor(1) matches the permissive threshold but is farther; a
    // new interval near shape 0 must classify back into phase a.
    c.classifyRaw(rawFor(1), kTotal, 1.0);
    ClassifyResult r = c.classifyRaw(rawFor(0, 0.02, 5), kTotal, 1.0);
    EXPECT_EQ(r.phase, a);
}

TEST(Classifier, MatchReplacesStoredSignature)
{
    // Signature creep: after matching, the entry holds the *current*
    // signature, letting a phase track slow drift (section 4.6
    // discussion / mcf behavior).
    PhaseClassifier c(baseConfig());
    c.classifyRaw(rawFor(0), kTotal, 1.0);
    // Drift in small steps; each step within threshold of the last.
    std::vector<std::uint32_t> raw = rawFor(0);
    PhaseId last = firstStablePhaseId;
    for (int step = 0; step < 6; ++step) {
        raw[0] += 4000;
        raw[15] += 3000;
        ClassifyResult r = c.classifyRaw(raw, kTotal, 1.0);
        EXPECT_EQ(r.phase, last) << "drift step " << step;
    }
}

TEST(Classifier, AdaptiveHalvesThresholdOnCpiDeviation)
{
    ClassifierConfig cfg = baseConfig();
    cfg.adaptiveThreshold = true;
    cfg.cpiDeviationThreshold = 0.25;
    PhaseClassifier c(cfg);
    c.classifyRaw(rawFor(0), kTotal, 2.0);
    c.classifyRaw(rawFor(0, 0.02, 1), kTotal, 2.1); // fine
    EXPECT_EQ(c.stats().thresholdHalvings, 0u);
    // CPI deviates 50% from the running average: halve.
    ClassifyResult r = c.classifyRaw(rawFor(0, 0.02, 2), kTotal, 3.1);
    EXPECT_TRUE(r.thresholdHalved);
    EXPECT_EQ(c.stats().thresholdHalvings, 1u);
    EXPECT_NEAR(c.table().threshold(0), 0.125, 1e-9);
    EXPECT_EQ(c.table().meta(0).cpi.count(), 1u)
        << "stats cleared then re-seeded with the current interval";
}

TEST(Classifier, AdaptiveRespectsFloor)
{
    ClassifierConfig cfg = baseConfig();
    cfg.adaptiveThreshold = true;
    cfg.cpiDeviationThreshold = 0.1;
    cfg.thresholdFloor = 0.1;
    PhaseClassifier c(cfg);
    double cpi = 1.0;
    c.classifyRaw(rawFor(0), kTotal, cpi);
    for (int i = 0; i < 10; ++i) {
        cpi *= 1.5; // always deviating
        c.classifyRaw(rawFor(0, 0.01, i), kTotal, cpi);
    }
    for (std::uint32_t i = 0; i < c.table().size(); ++i)
        EXPECT_GE(c.table().threshold(i), 0.1);
}

TEST(Classifier, StaticConfigNeverHalves)
{
    PhaseClassifier c(baseConfig());
    c.classifyRaw(rawFor(0), kTotal, 1.0);
    c.classifyRaw(rawFor(0, 0.02, 1), kTotal, 100.0);
    EXPECT_EQ(c.stats().thresholdHalvings, 0u);
}

TEST(Classifier, StatsConsistency)
{
    ClassifierConfig cfg = baseConfig();
    cfg.minCountThreshold = 8;
    PhaseClassifier c(cfg);
    for (int i = 0; i < 30; ++i)
        c.classifyRaw(rawFor(static_cast<unsigned>(i % 2), 0.02,
                             static_cast<std::uint64_t>(i)),
                      kTotal, 1.0);
    EXPECT_EQ(c.stats().intervals, 30u);
    EXPECT_LE(c.stats().transitionIntervals, 30u);
    EXPECT_GE(c.stats().insertions, 2u);
}

TEST(Classifier, RejectsWrongDimensionality)
{
    PhaseClassifier c(baseConfig());
    std::vector<std::uint32_t> wrong(8, 100);
    EXPECT_DEATH(c.classifyRaw(wrong, kTotal, 1.0),
                 "dimensionality");
}

TEST(Classifier, EvictionsSurfacedInStats)
{
    ClassifierConfig cfg = baseConfig();
    cfg.tableEntries = 2;
    PhaseClassifier c(cfg);
    for (unsigned shape = 0; shape < 6; ++shape)
        c.classifyRaw(rawFor(shape), kTotal, 1.0);
    EXPECT_GT(c.stats().evictions, 0u);
    EXPECT_EQ(c.stats().evictions, c.table().evictions())
        << "classifier stats mirror the table's eviction counter";
}

TEST(Classifier, EvictedPhaseGetsFreshIdOnRecurrence)
{
    // Intended hardware behavior: once LRU replacement drops a
    // phase's signature, the classifier has no memory of it — the
    // same code recurring is a *new* signature and receives a fresh
    // phase ID, not its old one.
    ClassifierConfig cfg = baseConfig();
    cfg.tableEntries = 2;
    PhaseClassifier c(cfg);
    PhaseId a = c.classifyRaw(rawFor(0), kTotal, 1.0).phase;
    // Two different behaviors fill the 2-entry table and evict A.
    c.classifyRaw(rawFor(1), kTotal, 1.0);
    c.classifyRaw(rawFor(2), kTotal, 1.0);
    EXPECT_GT(c.table().evictions(), 0u);
    ClassifyResult r = c.classifyRaw(rawFor(0), kTotal, 1.0);
    EXPECT_TRUE(r.inserted) << "the old signature is gone";
    EXPECT_NE(r.phase, a) << "recurrence after eviction = fresh ID";
}

TEST(Classifier, RestoreRefusesRowsOfAnotherWidth)
{
    // Rows that are not numCounters bytes wide would trip the match
    // scan's width assertion on the next interval.
    PhaseClassifier c(baseConfig());
    StateWriter w;
    c.saveState(w);
    std::vector<std::uint8_t> bytes = w.buffer();
    // The table's u32 capacity and u32 counter bits precede its u64
    // row width.
    const std::size_t at = 4 + 4;
    std::uint64_t width;
    std::memcpy(&width, bytes.data() + at, sizeof(width));
    ASSERT_EQ(width, 0u) << "an empty table has no row width yet";
    width = kDims / 2;
    std::memcpy(bytes.data() + at, &width, sizeof(width));

    PhaseClassifier d(baseConfig());
    StateReader r(bytes);
    EXPECT_THROW(d.loadState(r), Error);
}
