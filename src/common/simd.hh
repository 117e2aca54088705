/**
 * @file
 * Vector kernels for the classify hot path.
 *
 * Two dense uint8/uint32 kernels dominate classification (see
 * DESIGN.md "Hot path"): the per-chunk sum of absolute differences
 * that the past-signature-table match scan inlines into its one pass
 * over the rows, and signature compression (saturate + shift + mask
 * over the raw accumulators). The build compiles one variant of
 * each: SSE2 on x86-64 (the baseline of every x86-64 CPU), NEON on
 * aarch64, and the portable scalar loops everywhere else and under
 * `-DTPCP_SIMD=OFF`. Every variant produces *bit-identical* results
 * — integer distances and weights are exact, and all floating-point
 * decisions stay in the callers.
 */

#ifndef TPCP_COMMON_SIMD_HH
#define TPCP_COMMON_SIMD_HH

#include <cstdint>
#include <cstddef>

#if defined(__x86_64__) && !defined(TPCP_SIMD_DISABLED)
#define TPCP_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && !defined(TPCP_SIMD_DISABLED)
#define TPCP_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace tpcp::simd
{

/**
 * Rows in the signature table (and padded queries against them) are
 * padded with zero bytes to a multiple of this stride so vector
 * chunks never read past a row and the padding contributes |0-0| = 0
 * to every distance.
 */
inline constexpr std::size_t kRowPad = 16;

/** Pads @p n up to a multiple of kRowPad. */
inline constexpr std::size_t
paddedSize(std::size_t n)
{
    return (n + kRowPad - 1) / kRowPad * kRowPad;
}

/**
 * Sum of absolute byte differences of the kRowPad-byte chunks at
 * @p a and @p b: one `psadbw` on SSE2, one `vabdq`/`vaddlvq` pair on
 * NEON. Inline, so the match scan pays no call per row.
 */
inline std::uint64_t
sad16(const std::uint8_t *a, const std::uint8_t *b)
{
#if defined(TPCP_SIMD_X86)
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i *>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i *>(b));
    __m128i d = _mm_sub_epi8(_mm_max_epu8(va, vb), _mm_min_epu8(va, vb));
    __m128i s = _mm_sad_epu8(d, _mm_setzero_si128());
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<std::uint64_t>(
               _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
#elif defined(TPCP_SIMD_NEON)
    return vaddlvq_u8(vabdq_u8(vld1q_u8(a), vld1q_u8(b)));
#else
    std::uint64_t dist = 0;
    for (std::size_t i = 0; i < kRowPad; ++i) {
        int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
        dist += static_cast<std::uint64_t>(d < 0 ? -d : d);
    }
    return dist;
#endif
}

static_assert(kRowPad == 16, "sad16 covers exactly one row chunk");

/**
 * Signature compression kernel: for each of @p n raw uint32
 * counters, stores
 *
 *   out[i] = (raw[i] >> window_top) != 0  ?  max_dim
 *                                         : (raw[i] >> shift) & max_dim
 *
 * (the saturation test is dropped when window_top >= 32 — a 32-bit
 * counter can then never overflow the window) and returns the sum of
 * the stored bytes (the signature weight). Requires shift < 32;
 * max_dim must be a low-bit mask (2^bits - 1). Matches the scalar
 * loop in Signature::compressTo() bit for bit.
 */
std::uint32_t compressU32(const std::uint32_t *raw, std::size_t n,
                          unsigned shift, unsigned window_top,
                          std::uint8_t max_dim, std::uint8_t *out);

} // namespace tpcp::simd

#endif // TPCP_COMMON_SIMD_HH
