/**
 * @file
 * Unit tests for the sample selectors: budget and range discipline,
 * determinism, and each strategy's characteristic picks on planted
 * profiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bitops.hh"
#include "common/status.hh"
#include "sample/selector.hh"
#include "sample_test_util.hh"

using namespace tpcp;
using namespace tpcp::sample;
using sample_test::Cell;
using sample_test::makeProfile;
using sample_test::phasesOf;

namespace
{

/** 60 intervals alternating between three phases in 10-interval
 * runs, with a little within-phase CPI spread. */
std::vector<Cell>
threePhaseCells()
{
    std::vector<Cell> cells;
    for (std::size_t i = 0; i < 60; ++i) {
        auto phase = static_cast<PhaseId>((i / 10) % 3 + 1);
        double cpi = 1.0 + static_cast<double>(phase) +
                     0.01 * static_cast<double>(i % 10);
        cells.push_back({phase, cpi});
    }
    return cells;
}

} // namespace

TEST(Selector, MakeSelectorRoundTripsEveryName)
{
    for (const std::string &name : selectorNames()) {
        auto sel = makeSelector(name);
        ASSERT_NE(sel, nullptr);
        EXPECT_EQ(sel->name(), name);
    }
}

TEST(Selector, AllSelectorsRespectBudgetRangeAndOrdering)
{
    auto cells = threePhaseCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 7, 16};
    for (const std::string &name : selectorNames()) {
        for (std::size_t budget : {1u, 5u, 16u, 1000u}) {
            Selection s = makeSelector(name)->select(ctx, budget);
            EXPECT_FALSE(s.intervals.empty()) << name;
            EXPECT_LE(s.intervals.size(), budget) << name;
            EXPECT_TRUE(std::is_sorted(s.intervals.begin(),
                                       s.intervals.end()))
                << name;
            EXPECT_EQ(std::adjacent_find(s.intervals.begin(),
                                         s.intervals.end()),
                      s.intervals.end())
                << name << ": duplicate pick";
            for (std::size_t i : s.intervals)
                EXPECT_LT(i, profile.numIntervals()) << name;
        }
    }
}

TEST(Selector, AllSelectorsDeterministic)
{
    auto cells = threePhaseCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 99, 16};
    for (const std::string &name : selectorNames()) {
        Selection a = makeSelector(name)->select(ctx, 12);
        Selection b = makeSelector(name)->select(ctx, 12);
        EXPECT_EQ(a.intervals, b.intervals) << name;
    }
}

TEST(Selector, FirstPicksTheFirstIntervalOfEachPhase)
{
    auto cells = threePhaseCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Selection s = makeSelector("first")->select(ctx, 8);
    // Phase 1 first appears at 0, phase 2 at 10, phase 3 at 20.
    EXPECT_EQ(s.intervals,
              (std::vector<std::size_t>{0, 10, 20}));
}

TEST(Selector, FirstPrefersHeavyPhasesUnderTightBudget)
{
    // Phase 2 carries 10x the instructions of phase 1.
    std::vector<Cell> cells = {{1, 1.0, 100},
                               {2, 2.0, 1000},
                               {2, 2.0, 1000},
                               {1, 1.0, 100}};
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Selection s = makeSelector("first")->select(ctx, 1);
    EXPECT_EQ(s.intervals, (std::vector<std::size_t>{1}))
        << "budget 1 should go to the heaviest phase's first member";
}

TEST(Selector, CentroidPicksTheSignatureMedianMember)
{
    // One phase whose members' signatures vary linearly in skew;
    // the middle member sits at the centroid.
    std::vector<Cell> cells = {{1, 1.0, 1000, 0.1},
                               {1, 1.0, 1000, 0.3},
                               {1, 1.0, 1000, 0.5},
                               {1, 1.0, 1000, 0.7},
                               {1, 1.0, 1000, 0.9}};
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Selection s = makeSelector("centroid")->select(ctx, 4);
    EXPECT_EQ(s.intervals, (std::vector<std::size_t>{2}));
}

TEST(Selector, CentroidCoversEachPhaseOnce)
{
    auto cells = threePhaseCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Selection s = makeSelector("centroid")->select(ctx, 8);
    ASSERT_EQ(s.intervals.size(), 3u);
    std::set<PhaseId> covered;
    for (std::size_t i : s.intervals)
        covered.insert(phases[i]);
    EXPECT_EQ(covered.size(), 3u);
}

TEST(Selector, UniformIsEvenlySpaced)
{
    std::vector<Cell> cells(100, Cell{1, 1.0});
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Selection s = makeSelector("uniform")->select(ctx, 4);
    EXPECT_EQ(s.intervals,
              (std::vector<std::size_t>{12, 37, 62, 87}));
}

TEST(Selector, RandomVariesWithSeedButNotBetweenCalls)
{
    auto cells = threePhaseCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext a_ctx{profile, phases, 1, 16};
    SelectorContext b_ctx{profile, phases, 2, 16};
    Selection a1 = makeSelector("random")->select(a_ctx, 6);
    Selection a2 = makeSelector("random")->select(a_ctx, 6);
    Selection b = makeSelector("random")->select(b_ctx, 6);
    EXPECT_EQ(a1.intervals, a2.intervals);
    EXPECT_NE(a1.intervals, b.intervals);
}

TEST(Selector, StratifiedCoversEveryPhaseGivenHeadroom)
{
    auto cells = threePhaseCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Selection s = makeSelector("stratified")->select(ctx, 9);
    std::set<PhaseId> covered;
    for (std::size_t i : s.intervals)
        covered.insert(phases[i]);
    EXPECT_EQ(covered.size(), 3u);
}

TEST(Selector, StratifiedSmallBudgetIsPrefixOfLargerBudget)
{
    // Growing the budget must only add intervals, never swap them —
    // already-simulated detail is never thrown away.
    auto cells = threePhaseCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    auto sel = makeSelector("stratified");
    Selection small = sel->select(ctx, 6);
    Selection big = sel->select(ctx, 18);
    EXPECT_LT(small.intervals.size(), big.intervals.size());
    EXPECT_TRUE(std::includes(big.intervals.begin(),
                              big.intervals.end(),
                              small.intervals.begin(),
                              small.intervals.end()));
}

TEST(Selector, UnknownSelectorRaises)
{
    EXPECT_THROW((void)makeSelector("bogus"), tpcp::Error);
}

TEST(Selector, PhaseSourceNamesRoundTrip)
{
    EXPECT_EQ(phaseSourceByName("online"), PhaseSource::Online);
    EXPECT_EQ(phaseSourceByName("offline"), PhaseSource::Offline);
    EXPECT_STREQ(phaseSourceName(PhaseSource::Online), "online");
    EXPECT_STREQ(phaseSourceName(PhaseSource::Offline), "offline");
    EXPECT_THROW((void)phaseSourceByName("sideways"), tpcp::Error);
}

TEST(Selector, PhaseIdStreamMatchesProfileLength)
{
    auto cells = threePhaseCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> online =
        phaseIdStream(profile, PhaseSource::Online);
    std::vector<PhaseId> offline =
        phaseIdStream(profile, PhaseSource::Offline);
    EXPECT_EQ(online.size(), profile.numIntervals());
    EXPECT_EQ(offline.size(), profile.numIntervals());
    // Offline cluster IDs are shifted past the transition phase 0.
    for (PhaseId id : offline)
        EXPECT_GE(id, 1u);
}

TEST(Selector, StableHashIsTheReferenceFnv1a)
{
    // Sampling seeds hash workload names with common/bitops.hh.
    EXPECT_EQ(tpcp::fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(tpcp::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_NE(tpcp::fnv1a64("gcc/1"), tpcp::fnv1a64("gcc/s"));
}
