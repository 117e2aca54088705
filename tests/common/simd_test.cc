/**
 * @file
 * Scalar-vs-SIMD equivalence of the dispatched kernels in
 * common/simd.hh: every level available on the build/host must
 * produce bit-identical results to the portable scalar reference,
 * exhaustively for single-byte Manhattan distances and under
 * randomized sweeps for the wider kernels.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"

using namespace tpcp;

namespace
{

/** Levels this binary can actually run, always including Scalar. */
std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> out;
    for (simd::Level l :
         {simd::Level::Scalar, simd::Level::Sse2, simd::Level::Avx2,
          simd::Level::Neon}) {
        if (simd::forceLevel(l) == l)
            out.push_back(l);
    }
    return out;
}

/** Restores the pre-test dispatch level on scope exit. */
struct LevelGuard
{
    simd::Level saved = simd::active();
    ~LevelGuard() { simd::forceLevel(saved); }
};

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

TEST(SimdDispatch, ScalarAlwaysAvailableAndForceRestores)
{
    LevelGuard guard;
    EXPECT_EQ(simd::forceLevel(simd::Level::Scalar),
              simd::Level::Scalar);
    EXPECT_EQ(simd::active(), simd::Level::Scalar);
    EXPECT_EQ(simd::forceLevel(simd::bestSupported()),
              simd::bestSupported());
}

TEST(SimdDispatch, ForcingUnavailableLevelIsANoOp)
{
#if defined(__x86_64__)
    LevelGuard guard;
    simd::Level before = simd::active();
    EXPECT_EQ(simd::forceLevel(simd::Level::Neon), before);
#endif
}

TEST(SimdManhattan, ExhaustiveSingleByteAllLevels)
{
    LevelGuard guard;
    for (simd::Level l : availableLevels()) {
        ASSERT_EQ(simd::forceLevel(l), l);
        for (unsigned a = 0; a < 256; ++a) {
            for (unsigned b = 0; b < 256; ++b) {
                std::uint8_t va = static_cast<std::uint8_t>(a);
                std::uint8_t vb = static_cast<std::uint8_t>(b);
                ASSERT_EQ(simd::manhattanU8(&va, &vb, 1),
                          a > b ? a - b : b - a)
                    << "level=" << simd::levelName(l) << " a=" << a
                    << " b=" << b;
            }
        }
    }
}

TEST(SimdManhattan, RandomizedAllLengthsMatchReference)
{
    LevelGuard guard;
    Rng rng(std::uint64_t{0xd15});
    for (std::size_t n = 1; n <= 96; ++n) {
        std::vector<std::uint8_t> a(n), b(n);
        for (int round = 0; round < 16; ++round) {
            for (std::size_t i = 0; i < n; ++i) {
                a[i] = static_cast<std::uint8_t>(rng.nextBounded(256));
                b[i] = static_cast<std::uint8_t>(rng.nextBounded(256));
            }
            std::uint64_t want = refManhattan(a.data(), b.data(), n);
            for (simd::Level l : availableLevels()) {
                ASSERT_EQ(simd::forceLevel(l), l);
                ASSERT_EQ(simd::manhattanU8(a.data(), b.data(), n),
                          want)
                    << "level=" << simd::levelName(l) << " n=" << n;
            }
        }
    }
}

TEST(SimdManhattanRows4, ExactOrProvablyBeyondBound)
{
    LevelGuard guard;
    Rng rng(std::uint64_t{0x4404});
    for (std::size_t stride : {std::size_t{16}, std::size_t{32},
                               std::size_t{48}, std::size_t{64}}) {
        for (int round = 0; round < 200; ++round) {
            std::vector<std::uint8_t> q(stride);
            std::vector<std::uint8_t> rows(4 * stride);
            for (auto &v : q)
                v = static_cast<std::uint8_t>(rng.nextBounded(64));
            for (auto &v : rows)
                v = static_cast<std::uint8_t>(rng.nextBounded(64));
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
                        static_cast<std::uint32_t>(64 * stride));
                    break;
                  default:
                    bound[g] = ~std::uint64_t(0);
                    break;
                }
            }
            for (simd::Level l : availableLevels()) {
                ASSERT_EQ(simd::forceLevel(l), l);
                std::uint64_t dist[4];
                bool pruned = simd::manhattanRows4(
                    q.data(), rows.data(), stride, bound, dist);
                if (pruned) {
                    // Running distances only grow: a pruned group
                    // proves every full distance is at least its
                    // entry's bound.
                    for (unsigned g = 0; g < 4; ++g) {
                        EXPECT_GE(dist[g], bound[g]);
                        EXPECT_GE(ref[g], bound[g])
                            << "level=" << simd::levelName(l)
                            << " stride=" << stride << " lane=" << g;
                    }
                } else {
                    for (unsigned g = 0; g < 4; ++g)
                        EXPECT_EQ(dist[g], ref[g])
                            << "level=" << simd::levelName(l)
                            << " stride=" << stride << " lane=" << g;
                }
            }
        }
    }
}

TEST(SimdManhattanRows4, NeverPrunesBelowBoundLanes)
{
    // A group where one lane's bound is unreachable must always
    // report exact distances for that lane.
    LevelGuard guard;
    Rng rng(std::uint64_t{0x77});
    constexpr std::size_t stride = 32;
    std::vector<std::uint8_t> q(stride, 0);
    std::vector<std::uint8_t> rows(4 * stride, 63);
    std::uint64_t bound[4] = {1, 1, 1, ~std::uint64_t(0)};
    for (simd::Level l : availableLevels()) {
        ASSERT_EQ(simd::forceLevel(l), l);
        std::uint64_t dist[4];
        bool pruned = simd::manhattanRows4(q.data(), rows.data(),
                                           stride, bound, dist);
        EXPECT_FALSE(pruned);
        EXPECT_EQ(dist[3], 63u * stride);
    }
}

TEST(SimdCompress, RandomizedMatchesReferenceAllLevels)
{
    LevelGuard guard;
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
        for (simd::Level l : availableLevels()) {
            ASSERT_EQ(simd::forceLevel(l), l);
            std::memset(got.data(), 0xee, n);
            std::uint32_t gotW =
                simd::compressU32(raw.data(), n, shift, window_top,
                                  max_dim, got.data());
            ASSERT_EQ(gotW, wantW)
                << "level=" << simd::levelName(l) << " n=" << n
                << " shift=" << shift << " top=" << window_top;
            ASSERT_EQ(got, want)
                << "level=" << simd::levelName(l) << " n=" << n
                << " shift=" << shift << " top=" << window_top;
        }
    }
}
