/**
 * @file
 * The compiled kernels in common/simd.hh (SSE2, NEON or scalar,
 * whichever this build selected) against plain scalar loops written
 * here: exact chunk distances for the match scan, identical bytes and
 * weight for compression.
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

TEST(SimdSad16, MatchesReferenceOverRandomChunks)
{
    Rng rng(std::uint64_t{0x4404});
    std::uint8_t a[simd::kRowPad], b[simd::kRowPad];
    for (int round = 0; round < 20000; ++round) {
        // 6-bit signature values, and the full byte range the
        // byte-difference idiom must also get exact.
        const std::uint32_t maxv = round % 2 ? 256 : 64;
        for (std::size_t i = 0; i < simd::kRowPad; ++i) {
            a[i] = static_cast<std::uint8_t>(rng.nextBounded(maxv));
            b[i] = static_cast<std::uint8_t>(rng.nextBounded(maxv));
        }
        ASSERT_EQ(simd::sad16(a, b), refManhattan(a, b, simd::kRowPad));
    }
    std::memset(a, 0, sizeof(a));
    std::memset(b, 255, sizeof(b));
    EXPECT_EQ(simd::sad16(a, b), 255u * simd::kRowPad);
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
