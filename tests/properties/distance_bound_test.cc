/**
 * @file
 * Property test of the match scan's prune bound,
 * detail::distanceBoundUpper(): a Manhattan distance at or above it
 * must prove (double)dist / denom >= cutoff, computed in double
 * exactly as the scan's final comparison does. Otherwise the scan
 * would skip a row that matches. The bound must also stay within two
 * of the smallest such distance (a local reference here), or the
 * prune would let through rows the final tests have to reject. Sweeps
 * cutoffs (including thresholds halved down to the floor) and
 * denominators up to the largest sum of two 32-bit weights.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hh"
#include "phase/classifier_config.hh"
#include "phase/signature_table.hh"

using namespace tpcp;
using tpcp::phase::detail::distanceBoundUpper;

namespace
{

/** Largest denominator the scan forms: two 32-bit weights. */
constexpr std::uint64_t kMaxDenom = 2 * std::uint64_t{0xffffffff};

/** The smallest integer D with (double)D / denom >= cutoff. */
std::uint64_t
minimalBound(double cutoff, std::uint64_t denom)
{
    const double dd = static_cast<double>(denom);
    double prod = cutoff * dd;
    std::uint64_t d = prod <= 0.0 ? 0 : static_cast<std::uint64_t>(prod);
    while (static_cast<double>(d) / dd < cutoff)
        ++d;
    while (d > 0 && static_cast<double>(d - 1) / dd >= cutoff)
        --d;
    return d;
}

/** Sound (dist >= bound implies the quotient reaches the cutoff, so
 * the two distances just at and above the bound both fail the final
 * test) and near-minimal. */
void
expectSoundAndTight(double cutoff, std::uint64_t denom)
{
    const std::uint64_t u = distanceBoundUpper(cutoff, denom);
    const double dd = static_cast<double>(denom);
    for (std::uint64_t dist : {u, u + 1})
        EXPECT_GE(static_cast<double>(dist) / dd, cutoff)
            << "cutoff=" << cutoff << " denom=" << denom << " U=" << u;
    const std::uint64_t m = minimalBound(cutoff, denom);
    EXPECT_GE(u, m) << "cutoff=" << cutoff << " denom=" << denom;
    EXPECT_LE(u, m + 2) << "cutoff=" << cutoff << " denom=" << denom;
}

} // namespace

TEST(DistanceBoundProperty, KnownValues)
{
    // trunc(0.25 * 8) + 2 and trunc(0.25 * 10) + 2.
    EXPECT_EQ(distanceBoundUpper(0.25, 8), 4u);
    EXPECT_EQ(distanceBoundUpper(0.25, 10), 4u);
    // A non-positive cutoff prunes every row: no entry with a
    // threshold of 0 can match.
    EXPECT_EQ(distanceBoundUpper(0.0, 100), 0u);
    EXPECT_EQ(distanceBoundUpper(-1.0, 100), 0u);
    EXPECT_EQ(distanceBoundUpper(1.0, 123456), 123458u);
}

TEST(DistanceBoundProperty, RandomizedCutoffsAndDenoms)
{
    Rng rng(std::uint64_t{0xb0b});
    for (int round = 0; round < 200000; ++round) {
        std::uint64_t denom =
            1 + (rng.next64() >> (rng.nextBounded(50) + 14)) % kMaxDenom;
        expectSoundAndTight(rng.nextDouble(), denom);
    }
}

TEST(DistanceBoundProperty, ExactAndNearExactProducts)
{
    // cutoff = k / denom makes cutoff * denom round to (nearly)
    // exactly k, where a truncating bound is most likely off by one.
    Rng rng(std::uint64_t{0x1dea});
    for (int round = 0; round < 100000; ++round) {
        std::uint64_t denom = 1 + rng.nextBounded(1u << 20);
        std::uint64_t k = rng.nextBounded(
            static_cast<std::uint32_t>(denom) + 1);
        double cutoff =
            static_cast<double>(k) / static_cast<double>(denom);
        expectSoundAndTight(cutoff, denom);
        expectSoundAndTight(
            std::nextafter(cutoff,
                           std::numeric_limits<double>::infinity()),
            denom);
        expectSoundAndTight(std::nextafter(cutoff, -1.0), denom);
    }
}

TEST(DistanceBoundProperty, DenormalAdjacentCutoffs)
{
    const double denorm_min =
        std::numeric_limits<double>::denorm_min();
    for (std::uint64_t denom :
         {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{4080},
          kMaxDenom}) {
        expectSoundAndTight(denorm_min, denom);
        expectSoundAndTight(DBL_MIN, denom);
        expectSoundAndTight(std::nextafter(DBL_MIN, 1.0), denom);
        expectSoundAndTight(DBL_EPSILON, denom);
        expectSoundAndTight(std::nextafter(1.0, 0.0), denom);
        expectSoundAndTight(1.0, denom);
    }
}

TEST(DistanceBoundProperty, HugeDenomsStayMinimal)
{
    // Up to the largest denominator the scan forms, and every
    // threshold the adaptive scheme can reach: a starting threshold
    // halved until it stops at the floor. "Minimal" here is the
    // prune's promise: at most two above the smallest sound bound.
    const double floor = phase::ClassifierConfig{}.thresholdFloor;
    Rng rng(std::uint64_t{0xb16});
    for (int round = 0; round < 20000; ++round) {
        std::uint64_t denom = kMaxDenom - (rng.next64() >> 32);
        expectSoundAndTight(rng.nextDouble(), denom);
        std::uint64_t small = 1 + rng.nextBounded(1u << 13);
        for (double t : {0.25, 0.125, 0.3, 1.0}) {
            for (;;) {
                expectSoundAndTight(t, denom);
                expectSoundAndTight(t, small);
                if (t <= floor)
                    break;
                t = std::max(floor, t / 2.0);
            }
        }
    }
}
