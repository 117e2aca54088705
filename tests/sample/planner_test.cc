/**
 * @file
 * Unit tests for the budgeted sampling planner: pilot coverage
 * order, Neyman allocation, predicted-error monotonicity, and the
 * plan/realization contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "sample/planner.hh"
#include "sample_test_util.hh"

using namespace tpcp;
using namespace tpcp::sample;
using sample_test::Cell;
using sample_test::makeProfile;
using sample_test::phasesOf;

namespace
{

/** Two equal-weight phases: phase 1 flat CPI, phase 2 noisy. */
std::vector<Cell>
flatVsNoisyCells()
{
    std::vector<Cell> cells;
    for (std::size_t i = 0; i < 40; ++i)
        cells.push_back({1, 1.5});
    for (std::size_t i = 0; i < 40; ++i)
        cells.push_back(
            {2, 1.0 + 0.35 * static_cast<double>(i % 7)});
    return cells;
}

std::map<PhaseId, std::size_t>
perPhaseCounts(const Selection &sel,
               const std::vector<PhaseId> &phases)
{
    std::map<PhaseId, std::size_t> counts;
    for (std::size_t i : sel.intervals)
        ++counts[phases[i]];
    return counts;
}

} // namespace

TEST(Planner, SpendsTheWholeBudgetWhenPopulationAllows)
{
    auto cells = flatVsNoisyCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    for (std::size_t budget : {1u, 2u, 7u, 16u, 40u}) {
        Plan plan = planBudget(ctx, budget);
        EXPECT_EQ(plan.planned, budget) << "budget " << budget;
        std::size_t total = 0;
        for (const PhaseAllocation &a : plan.allocations) {
            EXPECT_LE(a.samples, a.population);
            total += a.samples;
        }
        EXPECT_EQ(total, plan.planned);
    }
}

TEST(Planner, BudgetBeyondPopulationCapsAtCensus)
{
    std::vector<Cell> cells = {{1, 1.0}, {1, 2.0}, {2, 3.0}};
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Plan plan = planBudget(ctx, 100);
    EXPECT_EQ(plan.planned, cells.size());
}

TEST(Planner, PilotCoversHeaviestPhasesFirst)
{
    // Four phases with descending instruction weight; budget 2 must
    // pilot the two heaviest.
    std::vector<Cell> cells;
    for (PhaseId p = 1; p <= 4; ++p)
        for (std::size_t i = 0; i < 5; ++i)
            cells.push_back(
                {p, 1.0, static_cast<InstCount>(5000 - 1000 * p)});
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Plan plan = planBudget(ctx, 2);
    std::map<PhaseId, std::size_t> sampled;
    for (const PhaseAllocation &a : plan.allocations)
        sampled[a.phase] = a.samples;
    EXPECT_EQ(sampled.at(1), 1u);
    EXPECT_EQ(sampled.at(2), 1u);
    EXPECT_EQ(sampled.at(3), 0u);
    EXPECT_EQ(sampled.at(4), 0u);
}

TEST(Planner, NeymanAllocationFavorsTheNoisyPhase)
{
    auto cells = flatVsNoisyCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Plan plan = planBudget(ctx, 20);
    std::map<PhaseId, std::size_t> sampled;
    double stddev_flat = 0.0, stddev_noisy = 0.0;
    for (const PhaseAllocation &a : plan.allocations) {
        sampled[a.phase] = a.samples;
        (a.phase == 1 ? stddev_flat : stddev_noisy) =
            a.pilotStddev;
    }
    EXPECT_GT(stddev_noisy, stddev_flat);
    EXPECT_GT(sampled.at(2), sampled.at(1))
        << "equal weight, higher variance -> more samples";
    EXPECT_GE(sampled.at(1), 1u) << "pilot coverage is kept";
}

TEST(Planner, PredictedErrorShrinksWithBudget)
{
    auto cells = flatVsNoisyCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Plan coarse = planBudget(ctx, 4);
    Plan fine = planBudget(ctx, 32);
    EXPECT_GT(coarse.predictedSe, 0.0);
    EXPECT_LT(fine.predictedSe, coarse.predictedSe);
    EXPECT_LT(fine.predictedRelError, coarse.predictedRelError);
}

TEST(Planner, CensusPredictsZeroError)
{
    auto cells = flatVsNoisyCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Plan plan = planBudget(ctx, cells.size());
    EXPECT_NEAR(plan.predictedSe, 0.0, 1e-12)
        << "sampling everything leaves no sampling error";
}

TEST(Planner, RealizedSelectionMatchesTheAllocations)
{
    auto cells = flatVsNoisyCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Plan plan = planBudget(ctx, 14);
    Selection sel = realizePlan(plan);
    EXPECT_EQ(sel.intervals.size(), plan.planned);
    auto counts = perPhaseCounts(sel, phases);
    for (const PhaseAllocation &a : plan.allocations)
        EXPECT_EQ(counts[a.phase], a.samples)
            << "phase " << a.phase;
}

TEST(Planner, PilotCpiApproximatesTruth)
{
    auto cells = flatVsNoisyCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SelectorContext ctx{profile, phases, 0, 16};
    Plan plan = planBudget(ctx, 16);
    double truth = sample_test::trueCpiOf(cells);
    EXPECT_NEAR(plan.pilotCpi, truth, 0.35 * truth)
        << "the pilot estimate seeds the error prediction; it only "
           "needs to be in the right ballpark";
}
