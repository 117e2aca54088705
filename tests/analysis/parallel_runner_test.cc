/**
 * @file
 * Tests for the parallel experiment runner: job-count resolution,
 * deterministic index-ordered results, exception propagation, and
 * the DESIGN.md invariant that runGrid() at any job count is
 * bit-identical to the serial classifyProfile() loop.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/parallel_runner.hh"
#include "trace/interval_profile.hh"

using namespace tpcp;
using namespace tpcp::analysis;

namespace
{

/**
 * A hand-built profile with three synthetic code regimes so the
 * classifier allocates several phases. Deterministic: no simulation,
 * no randomness.
 */
trace::IntervalProfile
syntheticProfile(unsigned seed)
{
    trace::IntervalProfile p("synthetic", "none", 1000, {16, 32});
    for (unsigned i = 0; i < 60; ++i) {
        unsigned regime = (i / 20) % 3;
        trace::IntervalRecord rec;
        rec.cpi = 1.0 + 0.5 * regime + 0.001 * ((i + seed) % 7);
        rec.insts = 1000;
        std::vector<std::uint32_t> counters;
        for (unsigned dim : p.dims()) {
            for (std::size_t b = 0; b < dim; ++b) {
                counters.push_back(static_cast<std::uint32_t>(
                    ((regime * 37 + b * 13 + seed) % 97) * 50));
                rec.accumTotal += counters.back();
            }
        }
        p.push(rec, counters);
    }
    return p;
}

std::vector<phase::ClassifierConfig>
sweepConfigs()
{
    std::vector<phase::ClassifierConfig> configs;
    phase::ClassifierConfig base;
    base.numCounters = 32;
    configs.push_back(base);
    phase::ClassifierConfig few = base;
    few.numCounters = 16;
    configs.push_back(few);
    phase::ClassifierConfig tight = base;
    tight.similarityThreshold = 0.10;
    configs.push_back(tight);
    return configs;
}

} // namespace

TEST(ParallelRunner, EffectiveJobsClampsToTaskCount)
{
    EXPECT_EQ(effectiveJobs(8, 3), 3u);
    EXPECT_EQ(effectiveJobs(2, 100), 2u);
    EXPECT_EQ(effectiveJobs(1, 100), 1u);
    EXPECT_EQ(effectiveJobs(4, 0), 1u);
    EXPECT_GE(effectiveJobs(0, 100), 1u);
}

TEST(ParallelRunner, RunIndexedMatchesSerialOrder)
{
    auto square = [](std::size_t i) { return i * i; };
    auto serial = runIndexed(64, 1, square);
    auto parallel = runIndexed(64, 4, square);
    ASSERT_EQ(serial.size(), 64u);
    EXPECT_EQ(parallel, serial);
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], i * i);
}

TEST(ParallelRunner, RunIndexedZeroTasks)
{
    auto out = runIndexed(0, 4, [](std::size_t i) { return i; });
    EXPECT_TRUE(out.empty());
}

TEST(ParallelRunner, RunIndexedPropagatesException)
{
    auto boom = [](std::size_t i) -> int {
        if (i == 5)
            throw std::runtime_error("cell failed");
        return static_cast<int>(i);
    };
    EXPECT_THROW(runIndexed(16, 4, boom), std::runtime_error);
    EXPECT_THROW(runIndexed(16, 1, boom), std::runtime_error);
}

TEST(ParallelRunner, RunGridBitIdenticalToSerialLoop)
{
    std::vector<NamedProfile> profiles;
    profiles.emplace_back("wl/a", syntheticProfile(0));
    profiles.emplace_back("wl/b", syntheticProfile(3));
    std::vector<phase::ClassifierConfig> configs = sweepConfigs();

    auto parallel = runGrid(profiles, configs, 4);

    ASSERT_EQ(parallel.size(), profiles.size() * configs.size());
    for (std::size_t w = 0; w < profiles.size(); ++w) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            ClassificationResult serial = classifyProfile(
                profiles[w].second, configs[c]);
            const ClassificationResult &par =
                parallel[w * configs.size() + c];
            // Exact (bitwise) equality, not EXPECT_NEAR: the
            // parallel path must run the identical computation.
            EXPECT_EQ(par.trace.phases, serial.trace.phases);
            EXPECT_EQ(par.trace.cpis, serial.trace.cpis);
            EXPECT_EQ(par.numPhases, serial.numPhases);
            EXPECT_EQ(par.covCpi, serial.covCpi);
            EXPECT_EQ(par.wholeProgramCov, serial.wholeProgramCov);
            EXPECT_EQ(par.transitionFraction,
                      serial.transitionFraction);
        }
    }
}

TEST(ParallelRunner, RunGridJobCountsAgree)
{
    std::vector<NamedProfile> profiles;
    profiles.emplace_back("wl/a", syntheticProfile(1));
    std::vector<phase::ClassifierConfig> configs = sweepConfigs();

    auto one = runGrid(profiles, configs, 1);
    auto two = runGrid(profiles, configs, 2);
    auto eight = runGrid(profiles, configs, 8);
    ASSERT_EQ(one.size(), two.size());
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(two[i].trace.phases, one[i].trace.phases);
        EXPECT_EQ(eight[i].trace.phases, one[i].trace.phases);
        EXPECT_EQ(two[i].covCpi, one[i].covCpi);
        EXPECT_EQ(eight[i].covCpi, one[i].covCpi);
    }
}
