/**
 * @file
 * The compiled kernels in common/simd.hh (SSE2, NEON or scalar,
 * whichever this build selected) against plain scalar loops written
 * here: exact distances or a provable prune for the grouped row
 * scan, identical bytes and weight for compression.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"

using namespace tpcp;

namespace
{

std::uint64_t
refManhattan(const std::uint8_t *a, const std::uint8_t *b,
             std::size_t n)
{
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < n; ++i)
        d += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    return d;
}

std::uint32_t
refCompress(const std::uint32_t *raw, std::size_t n, unsigned shift,
            unsigned window_top, std::uint8_t max_dim,
            std::uint8_t *out)
{
    std::uint32_t weight = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t v = raw[i];
        std::uint8_t sel =
            (window_top < 32 && (v >> window_top) != 0)
                ? max_dim
                : static_cast<std::uint8_t>((v >> shift) & max_dim);
        out[i] = sel;
        weight += sel;
    }
    return weight;
}

} // namespace

TEST(SimdManhattanRows4, ExactOrProvablyBeyondBound)
{
    Rng rng(std::uint64_t{0x4404});
    for (std::size_t stride : {std::size_t{16}, std::size_t{32},
                               std::size_t{48}, std::size_t{64}}) {
        for (int round = 0; round < 200; ++round) {
            // 6-bit signature values, and the full byte range the
            // byte-difference idiom must also get exact.
            const std::uint32_t maxv = round % 2 ? 256 : 64;
            std::vector<std::uint8_t> q(stride);
            std::vector<std::uint8_t> rows(4 * stride);
            for (auto &v : q)
                v = static_cast<std::uint8_t>(rng.nextBounded(maxv));
            for (auto &v : rows)
                v = static_cast<std::uint8_t>(rng.nextBounded(maxv));
            std::uint64_t ref[4];
            for (unsigned g = 0; g < 4; ++g)
                ref[g] = refManhattan(q.data(),
                                      rows.data() + g * stride,
                                      stride);
            // Bounds spanning trivially-prunable (0), mid-range and
            // unreachable values.
            std::uint64_t bound[4];
            for (unsigned g = 0; g < 4; ++g) {
                switch (rng.nextBounded(3)) {
                  case 0:
                    bound[g] = 0;
                    break;
                  case 1:
                    bound[g] = rng.nextBounded(
                        static_cast<std::uint32_t>(maxv * stride));
                    break;
                  default:
                    bound[g] = ~std::uint64_t(0);
                    break;
                }
            }
            std::uint64_t dist[4];
            bool pruned = simd::manhattanRows4(q.data(), rows.data(),
                                               stride, bound, dist);
            if (pruned) {
                // Running distances only grow: a pruned group proves
                // every full distance is at least its entry's bound.
                for (unsigned g = 0; g < 4; ++g) {
                    EXPECT_GE(dist[g], bound[g]);
                    EXPECT_GE(ref[g], bound[g])
                        << "stride=" << stride << " lane=" << g;
                }
            } else {
                for (unsigned g = 0; g < 4; ++g)
                    EXPECT_EQ(dist[g], ref[g])
                        << "stride=" << stride << " lane=" << g;
            }
        }
    }
}

TEST(SimdManhattanRows4, NeverPrunesBelowBoundLanes)
{
    // A group where one lane's bound is unreachable must always
    // report exact distances for that lane.
    constexpr std::size_t stride = 32;
    std::vector<std::uint8_t> q(stride, 0);
    std::vector<std::uint8_t> rows(4 * stride, 63);
    std::uint64_t bound[4] = {1, 1, 1, ~std::uint64_t(0)};
    std::uint64_t dist[4];
    bool pruned = simd::manhattanRows4(q.data(), rows.data(), stride,
                                       bound, dist);
    EXPECT_FALSE(pruned);
    EXPECT_EQ(dist[3], 63u * stride);
}

TEST(SimdCompress, RandomizedMatchesReferenceAllLevels)
{
    // Each build compiles one kernel level; CI's scalar-identity job
    // runs this in the vector and the -DTPCP_SIMD=OFF build.
    Rng rng(std::uint64_t{0xc0});
    for (int round = 0; round < 400; ++round) {
        std::size_t n = 1 + rng.nextBounded(64);
        std::vector<std::uint32_t> raw(n);
        for (auto &v : raw) {
            // Mix small values, window-edge values and full-range
            // values so both the saturating and masking paths fire.
            switch (rng.nextBounded(3)) {
              case 0:
                v = rng.nextBounded(1 << 10);
                break;
              case 1:
                v = rng.next32() & 0xffffu;
                break;
              default:
                v = rng.next32();
                break;
            }
        }
        unsigned bits = 1 + rng.nextBounded(8);
        unsigned shift = rng.nextBounded(32);
        // Window tops at, below and far above the counter width,
        // including the >= 32 "can never saturate" regime.
        unsigned window_top = rng.nextBounded(40);
        std::uint8_t max_dim =
            static_cast<std::uint8_t>((1u << bits) - 1);
        std::vector<std::uint8_t> want(n), got(n);
        std::uint32_t wantW = refCompress(raw.data(), n, shift,
                                          window_top, max_dim,
                                          want.data());
        std::memset(got.data(), 0xee, n);
        std::uint32_t gotW = simd::compressU32(raw.data(), n, shift,
                                               window_top, max_dim,
                                               got.data());
        ASSERT_EQ(gotW, wantW) << "n=" << n << " shift=" << shift
                               << " top=" << window_top;
        ASSERT_EQ(got, want) << "n=" << n << " shift=" << shift
                             << " top=" << window_top;
    }
}
