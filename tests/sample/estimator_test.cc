/**
 * @file
 * Unit tests for the stratified CPI estimator: exactness under a
 * full census, instruction weighting, pooled-mean fallback for
 * uncovered phases, and the error-bar machinery.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "sample/estimator.hh"
#include "sample_test_util.hh"

using namespace tpcp;
using namespace tpcp::sample;
using sample_test::Cell;
using sample_test::makeProfile;
using sample_test::phasesOf;
using sample_test::trueCpiOf;

namespace
{

/** estimateCpi over the strata of the phases @p cells planted. */
Estimate
estimate(const trace::IntervalProfile &profile,
         const std::vector<Cell> &cells, const Selection &selection)
{
    return estimateCpi(profile, buildStrata(profile, phasesOf(cells)),
                       selection);
}

Selection
all(std::size_t n)
{
    Selection s;
    s.intervals.resize(n);
    std::iota(s.intervals.begin(), s.intervals.end(),
              std::size_t{0});
    return s;
}

} // namespace

TEST(Estimator, FullCensusIsExactWithZeroAnalyticError)
{
    std::vector<Cell> cells = {{1, 1.0}, {1, 1.5}, {2, 3.0},
                               {2, 2.0}, {1, 1.25}};
    trace::IntervalProfile profile = makeProfile(cells);
    Estimate est = estimate(profile, cells,
                            all(cells.size()));
    EXPECT_NEAR(est.estimatedCpi, trueCpiOf(cells), 1e-12);
    EXPECT_NEAR(est.trueCpi, trueCpiOf(cells), 1e-12);
    EXPECT_DOUBLE_EQ(est.standardError, 0.0)
        << "finite-population correction must zero a census SE";
    EXPECT_EQ(est.sampled, cells.size());
    EXPECT_EQ(est.phasesCovered, est.phasesTotal);
    EXPECT_DOUBLE_EQ(est.relError(), 0.0);
}

TEST(Estimator, OneSamplePerHomogeneousPhaseIsExact)
{
    // CPI is constant within each phase, so a single member
    // reconstructs the whole program exactly.
    std::vector<Cell> cells;
    for (std::size_t i = 0; i < 30; ++i)
        cells.push_back(
            {static_cast<PhaseId>(i % 3 + 1),
             1.0 + static_cast<double>(i % 3)});
    trace::IntervalProfile profile = makeProfile(cells);
    Estimate est = estimate(profile, cells,
                            Selection{{0, 1, 2}});
    EXPECT_NEAR(est.estimatedCpi, trueCpiOf(cells), 1e-12);
    EXPECT_DOUBLE_EQ(est.standardError, 0.0);
    EXPECT_EQ(est.sampled, 3u);
    EXPECT_NEAR(est.sampledFraction(), 0.1, 1e-12);
    EXPECT_NEAR(est.speedupEquivalent(), 10.0, 1e-12);
}

TEST(Estimator, HonorsInstructionWeights)
{
    // Unequal interval lengths: the heavy interval dominates.
    std::vector<Cell> cells = {{1, 1.0, 3000}, {2, 2.0, 1000}};
    trace::IntervalProfile profile = makeProfile(cells);
    Estimate est =
        estimate(profile, cells, all(2));
    EXPECT_NEAR(est.trueCpi, 1.25, 1e-12);
    EXPECT_NEAR(est.estimatedCpi, 1.25, 1e-12);
}

TEST(Estimator, UncoveredPhaseFallsBackToPooledMean)
{
    // Only phase 1 is sampled; phase 2's strata weight must be
    // filled with the pooled sample mean (1.0), not dropped.
    std::vector<Cell> cells = {{1, 1.0}, {1, 1.0},
                               {2, 3.0}, {2, 3.0}};
    trace::IntervalProfile profile = makeProfile(cells);
    Estimate est =
        estimate(profile, cells, Selection{{0, 1}});
    EXPECT_EQ(est.phasesTotal, 2u);
    EXPECT_EQ(est.phasesCovered, 1u);
    EXPECT_NEAR(est.estimatedCpi, 1.0, 1e-12)
        << "both strata weighted by the pooled mean of phase 1";
    EXPECT_NEAR(est.trueCpi, 2.0, 1e-12);
    EXPECT_NEAR(est.relError(), 0.5, 1e-12);
}

TEST(Estimator, JackknifeCiBracketsTheEstimate)
{
    std::vector<Cell> cells;
    for (std::size_t i = 0; i < 40; ++i) {
        double wiggle = 0.2 * static_cast<double>(i % 5);
        cells.push_back({static_cast<PhaseId>(i % 2 + 1),
                         1.0 + static_cast<double>(i % 2) + wiggle});
    }
    trace::IntervalProfile profile = makeProfile(cells);
    Estimate est = estimate(profile, cells,
                            Selection{{0, 1, 5, 10, 11, 23}});
    EXPECT_GT(est.jackknifeSe, 0.0)
        << "heterogeneous samples must show jackknife spread";
    EXPECT_LE(est.ciLow, est.estimatedCpi);
    EXPECT_GE(est.ciHigh, est.estimatedCpi);
    EXPECT_NEAR(est.ciHigh - est.estimatedCpi,
                est.estimatedCpi - est.ciLow, 1e-12)
        << "the 95% interval is symmetric about the estimate";
}

TEST(Estimator, SingleSampleUsesAnalyticSeForTheCi)
{
    std::vector<Cell> cells = {{1, 1.0}, {1, 2.0}, {1, 3.0}};
    trace::IntervalProfile profile = makeProfile(cells);
    Estimate est =
        estimate(profile, cells, Selection{{1}});
    EXPECT_DOUBLE_EQ(est.jackknifeSe, 0.0);
    EXPECT_NEAR(est.ciLow,
                est.estimatedCpi - 1.96 * est.standardError, 1e-12);
    EXPECT_NEAR(est.ciHigh,
                est.estimatedCpi + 1.96 * est.standardError, 1e-12);
}

TEST(Estimator, EmptySelectionIsFatal)
{
    std::vector<Cell> cells = {{1, 1.0}};
    trace::IntervalProfile profile = makeProfile(cells);
    EXPECT_DEATH((void)estimate(profile, cells, Selection{}),
                 "empty selection");
}

TEST(Estimator, OutOfRangeSelectionIsFatal)
{
    std::vector<Cell> cells = {{1, 1.0}, {1, 2.0}};
    trace::IntervalProfile profile = makeProfile(cells);
    EXPECT_DEATH((void)estimate(profile, cells, Selection{{0, 17}}),
                 "out of range");
}
