/**
 * @file
 * Unit tests for the SPSC byte ring: framing round-trips, wraparound,
 * full/empty boundary conditions, oversized-frame rejection, and a
 * real two-thread producer/consumer run (the TSan target for the
 * ring's acquire/release protocol).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/status.hh"
#include "serve/ring_buffer.hh"

using namespace tpcp;
using namespace tpcp::serve;

namespace
{

std::vector<std::uint8_t>
frame(std::size_t len, std::uint8_t fill)
{
    return std::vector<std::uint8_t>(len, fill);
}

} // namespace

TEST(SpscRing, StartsEmpty)
{
    SpscRing ring(256);
    EXPECT_TRUE(ring.empty());
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(ring.tryPop(out));
}

TEST(SpscRing, PushPopRoundTrip)
{
    SpscRing ring(256);
    const auto in = frame(37, 0xAB);
    ASSERT_TRUE(ring.tryPush(in.data(),
                             static_cast<std::uint32_t>(in.size())));
    EXPECT_FALSE(ring.empty());
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, in);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, PreservesFifoOrderAndLengths)
{
    SpscRing ring(1024);
    for (std::uint8_t i = 1; i <= 5; ++i)
        ASSERT_TRUE(ring.tryPush(frame(i * 7, i).data(), i * 7u));
    std::vector<std::uint8_t> out;
    for (std::uint8_t i = 1; i <= 5; ++i) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out.size(), i * 7u);
        EXPECT_EQ(out.front(), i);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, WrapAroundManyCycles)
{
    // A ring much smaller than the total traffic: every byte
    // position wraps many times, with frame lengths chosen to land
    // the split point everywhere.
    SpscRing ring(128);
    std::vector<std::uint8_t> out;
    for (int i = 0; i < 10000; ++i) {
        const std::size_t len = 1 + (i % 60);
        const auto in = frame(len, static_cast<std::uint8_t>(i));
        ASSERT_TRUE(ring.tryPush(
            in.data(), static_cast<std::uint32_t>(len)));
        ASSERT_TRUE(ring.tryPop(out));
        ASSERT_EQ(out, in);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRingRejectsUntilDrained)
{
    SpscRing ring(64);
    const auto in = frame(16, 0x11);
    int pushed = 0;
    while (ring.tryPush(in.data(), 16))
        ++pushed;
    EXPECT_GE(pushed, 2);
    // Backpressure, not loss: a pop frees exactly one frame's space.
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_TRUE(ring.tryPush(in.data(), 16));
    EXPECT_FALSE(ring.tryPush(in.data(), 16));
}

TEST(SpscRing, OversizedFrameRaisesInsteadOfParkingForever)
{
    SpscRing ring(64);
    const auto in = frame(4096, 0x22);
    // A frame that cannot fit even into an empty ring would make a
    // parked producer spin forever; it must raise instead.
    EXPECT_THROW(ring.tryPush(in.data(), 4096), Error);
}

TEST(SpscRing, CapacityBeyondLargestPowerOfTwoRaises)
{
    // Rounding these up would double past the top bit to 0 and spin
    // forever; they must raise before allocating anything.
    EXPECT_THROW(SpscRing(~std::size_t(0)), Error);
    EXPECT_THROW(SpscRing((~std::size_t(0) >> 1) + 2), Error);
}

TEST(SpscRing, ZeroLengthFrameRoundTrips)
{
    SpscRing ring(64);
    const std::uint8_t dummy = 0;
    ASSERT_TRUE(ring.tryPush(&dummy, 0));
    std::vector<std::uint8_t> out{9, 9};
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_TRUE(out.empty());
}

TEST(SpscRing, ConcurrentProducerConsumer)
{
    // The TSan target: a real producer thread racing a real
    // consumer thread through the acquire/release indices, with
    // content checks to catch torn frames.
    constexpr int kFrames = 50000;
    SpscRing ring(1u << 12);
    std::thread producer([&] {
        std::uint8_t payload[64];
        for (int i = 0; i < kFrames; ++i) {
            const std::uint32_t len = 8 + (i % 57);
            std::memset(payload, i & 0xFF, len);
            std::memcpy(payload, &i, sizeof(int));
            while (!ring.tryPush(payload, len))
                std::this_thread::yield();
        }
    });

    std::vector<std::uint8_t> out;
    for (int i = 0; i < kFrames; ++i) {
        while (!ring.tryPop(out))
            std::this_thread::yield();
        ASSERT_EQ(out.size(), 8u + (i % 57));
        int seq = -1;
        std::memcpy(&seq, out.data(), sizeof(int));
        ASSERT_EQ(seq, i) << "frames reordered or torn";
        for (std::size_t b = sizeof(int); b < out.size(); ++b)
            ASSERT_EQ(out[b], static_cast<std::uint8_t>(i & 0xFF));
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}
