/**
 * @file
 * Tests for the interval profiler: interval splitting, CPI
 * computation, branch accounting into the accumulators and tail
 * handling.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "../test_helpers.hh"
#include "trace/interval_profiler.hh"
#include "uarch/ooo_core.hh"
#include "uarch/simulator.hh"

using namespace tpcp;
using namespace tpcp::trace;
using namespace tpcp::uarch;

namespace
{

IntervalProfile
profileLoop(InstCount run_insts, InstCount interval,
            std::vector<unsigned> dims = {8, 16})
{
    isa::Program p = test::loopProgram(7, 4);
    auto sched = test::fixedSchedule({{0, run_insts}});
    OooCore core(MachineConfig::table1());
    Simulator sim(p, sched, core, 1);
    IntervalProfiler profiler(core, "loop", interval, dims);
    sim.addSink(&profiler);
    sim.run();
    return profiler.takeProfile();
}

} // namespace

TEST(IntervalProfiler, SplitsIntoFixedIntervals)
{
    IntervalProfile prof = profileLoop(10'000, 1'000);
    EXPECT_EQ(prof.numIntervals(), 10u);
    for (const auto &rec : prof.intervals())
        EXPECT_EQ(rec.insts, 1'000u);
}

TEST(IntervalProfiler, DropsPartialTail)
{
    IntervalProfile prof = profileLoop(10'500, 1'000);
    EXPECT_EQ(prof.numIntervals(), 10u)
        << "the trailing 500 instructions are dropped";
}

TEST(IntervalProfiler, CpiPositiveAndStable)
{
    IntervalProfile prof = profileLoop(50'000, 5'000);
    ASSERT_EQ(prof.numIntervals(), 10u);
    for (const auto &rec : prof.intervals()) {
        EXPECT_GT(rec.cpi, 0.0);
        EXPECT_LT(rec.cpi, 10.0);
    }
    // A steady loop: intervals after warmup have near-equal CPI.
    double c1 = prof.interval(5).cpi;
    double c2 = prof.interval(9).cpi;
    EXPECT_NEAR(c1, c2, 0.1 * c1);
}

TEST(IntervalProfiler, AccumulatorsSumToBranchedInsts)
{
    // Every instruction is attributed to some branch record except
    // those after the interval's last branch (they roll into the
    // next interval). Totals must be close to the interval length.
    IntervalProfile prof = profileLoop(8'000, 1'000);
    for (std::size_t i = 0; i < prof.numIntervals(); ++i) {
        const auto &rec = prof.interval(i);
        const std::uint32_t *c = prof.counters(i, 0);
        std::uint64_t sum = std::accumulate(c, c + 8, 0ull);
        EXPECT_EQ(sum, rec.accumTotal);
        EXPECT_NEAR(static_cast<double>(rec.accumTotal),
                    static_cast<double>(rec.insts),
                    8.0 + 1.0)
            << "at most one block of slack at the boundary";
    }
}

TEST(IntervalProfiler, MultipleDimConfigsConsistent)
{
    IntervalProfile prof = profileLoop(5'000, 1'000, {8, 16, 32});
    ASSERT_EQ(prof.dims().size(), 3u);
    for (std::size_t i = 0; i < prof.numIntervals(); ++i) {
        const std::uint32_t *c8 = prof.counters(i, 0);
        const std::uint32_t *c16 = prof.counters(i, 1);
        const std::uint32_t *c32 = prof.counters(i, 2);
        std::uint64_t s8 = std::accumulate(c8, c8 + 8, 0ull);
        std::uint64_t s16 = std::accumulate(c16, c16 + 16, 0ull);
        std::uint64_t s32 = std::accumulate(c32, c32 + 32, 0ull);
        EXPECT_EQ(s8, s16);
        EXPECT_EQ(s16, s32)
            << "all dimension configs see the same increments";
    }
}

TEST(IntervalProfiler, SingleBranchPcConcentratesMass)
{
    // The loop program has exactly one branch PC, so each interval's
    // accumulator vector must have exactly one non-zero counter.
    IntervalProfile prof = profileLoop(4'000, 1'000);
    for (std::size_t i = 0; i < prof.numIntervals(); ++i) {
        const std::uint32_t *c = prof.counters(i, 0);
        int nonzero = 0;
        for (unsigned d = 0; d < prof.dims()[0]; ++d)
            nonzero += c[d] ? 1 : 0;
        EXPECT_EQ(nonzero, 1);
    }
}
