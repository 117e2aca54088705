/**
 * @file
 * Unit tests for the accumulator table (paper Figure 1, step 2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hh"
#include "phase/accumulator_table.hh"

using namespace tpcp;
using namespace tpcp::phase;

TEST(AccumulatorTable, StartsZeroed)
{
    AccumulatorTable acc(16);
    EXPECT_EQ(acc.numCounters(), 16u);
    EXPECT_EQ(acc.totalIncrement(), 0u);
    for (auto c : acc.counters())
        EXPECT_EQ(c, 0u);
}

TEST(AccumulatorTable, RecordAddsToExactlyOneCounter)
{
    AccumulatorTable acc(16);
    acc.recordBranch(0x4000, 12);
    std::uint64_t sum = std::accumulate(acc.counters().begin(),
                                        acc.counters().end(), 0ull);
    EXPECT_EQ(sum, 12u);
    EXPECT_EQ(acc.totalIncrement(), 12u);
}

TEST(AccumulatorTable, SamePcSameCounter)
{
    AccumulatorTable acc(16);
    acc.recordBranch(0x4000, 5);
    acc.recordBranch(0x4000, 7);
    int nonzero = 0;
    for (auto c : acc.counters()) {
        if (c) {
            ++nonzero;
            EXPECT_EQ(c, 12u);
        }
    }
    EXPECT_EQ(nonzero, 1);
}

TEST(AccumulatorTable, DifferentPcsSpread)
{
    AccumulatorTable acc(16);
    for (Addr pc = 0x4000; pc < 0x4000 + 256 * 4; pc += 4)
        acc.recordBranch(pc, 1);
    int nonzero = 0;
    for (auto c : acc.counters())
        nonzero += c ? 1 : 0;
    EXPECT_GE(nonzero, 14) << "hash must spread branch PCs";
}

TEST(AccumulatorTable, TotalTracksAllIncrements)
{
    AccumulatorTable acc(8);
    for (int i = 0; i < 100; ++i)
        acc.recordBranch(0x4000 + 4 * (i % 13), 10);
    EXPECT_EQ(acc.totalIncrement(), 1000u);
}

TEST(AccumulatorTable, CounterSaturatesAtWidth)
{
    static_assert(kAccumBits == 24 && kAccumMax == (1u << 24) - 1);
    AccumulatorTable acc(1); // single 24-bit counter
    acc.recordBranch(0x4000, 10'000'000);
    acc.recordBranch(0x4000, 10'000'000);
    EXPECT_EQ(acc.counters()[0], kAccumMax) << "saturates, never wraps";
    EXPECT_EQ(acc.totalIncrement(), 20'000'000u)
        << "total is tracked exactly";
    acc.recordBranch(0x4000, 1);
    EXPECT_EQ(acc.counters()[0], kAccumMax) << "stays saturated";
}

TEST(AccumulatorTable, TwentyFourBitNeverOverflowsAtPaperScale)
{
    // 10M-instruction intervals fit in 24-bit counters (paper 4.2).
    AccumulatorTable acc(1);
    acc.recordBranch(0x4000, 10'000'000);
    EXPECT_EQ(acc.counters()[0], 10'000'000u);
    EXPECT_LT(acc.counters()[0], 1u << 24);
}

TEST(AccumulatorTable, ResetClears)
{
    AccumulatorTable acc(16);
    acc.recordBranch(0x4000, 5);
    acc.reset();
    EXPECT_EQ(acc.totalIncrement(), 0u);
    for (auto c : acc.counters())
        EXPECT_EQ(c, 0u);
}

TEST(AccumulatorTable, DeterministicHashAcrossInstances)
{
    AccumulatorTable a(32), b(32);
    a.recordBranch(0xdead0, 3);
    b.recordBranch(0xdead0, 3);
    EXPECT_EQ(a.counters(), b.counters());
}

TEST(AccumulatorTable, BatchedRecordBranchesMatchesSerial)
{
    AccumulatorTable serial(16);
    AccumulatorTable batched(16);

    // The counters carry across the batches, so the large increments
    // drive some of them into saturation.
    Rng rng(std::uint64_t{77});
    for (int interval = 0; interval < 12; ++interval) {
        std::vector<BranchEvent> events;
        unsigned shape = interval % 3;
        for (int b = 0; b < 300; ++b) {
            events.push_back({0x2000 * (shape + 1) +
                                  4 * rng.nextBounded(16),
                              7 + rng.nextBounded(200000)});
        }
        for (const BranchEvent &ev : events)
            serial.recordBranch(ev.pc, ev.insts);
        batched.recordBranches(events.data(), events.size());

        EXPECT_EQ(serial.counters(), batched.counters())
            << "interval " << interval;
        EXPECT_EQ(serial.totalIncrement(), batched.totalIncrement())
            << "interval " << interval;
    }
    EXPECT_NE(std::count(serial.counters().begin(),
                         serial.counters().end(), kAccumMax),
              0)
        << "no counter saturated";
}
