#include "common/simd.hh"

#include <cstring>

namespace tpcp::simd
{

namespace
{

/** The portable compression loop: the kernel of scalar builds and
 * the tail of the vector kernels. */
std::uint32_t
compressScalar(const std::uint32_t *raw, std::size_t n, unsigned shift,
               unsigned window_top, std::uint8_t max_dim,
               std::uint8_t *out)
{
    const bool saturate = window_top < 32;
    std::uint32_t weight = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t v = raw[i];
        std::uint8_t sel = (saturate && (v >> window_top) != 0)
                               ? max_dim
                               : static_cast<std::uint8_t>(
                                     (v >> shift) & max_dim);
        out[i] = sel;
        weight += sel;
    }
    return weight;
}

#if defined(TPCP_SIMD_X86)

// ---- SSE2 (x86-64 baseline, no extra target flags) ----

std::uint32_t
compressSse2(const std::uint32_t *raw, std::size_t n, unsigned shift,
             unsigned window_top, std::uint8_t max_dim,
             std::uint8_t *out)
{
    const bool saturate = window_top < 32;
    const __m128i shiftCnt = _mm_cvtsi32_si128(static_cast<int>(shift));
    const __m128i topCnt =
        _mm_cvtsi32_si128(static_cast<int>(window_top));
    const __m128i lowMask = _mm_set1_epi32(max_dim);
    const __m128i maxVec = _mm_set1_epi32(max_dim);
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = zero;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(raw + i));
        __m128i sel =
            _mm_and_si128(_mm_srl_epi32(v, shiftCnt), lowMask);
        if (saturate) {
            // All-ones lanes where the window does NOT overflow.
            __m128i eqz =
                _mm_cmpeq_epi32(_mm_srl_epi32(v, topCnt), zero);
            sel = _mm_or_si128(_mm_and_si128(eqz, sel),
                               _mm_andnot_si128(eqz, maxVec));
        }
        acc = _mm_add_epi32(acc, sel);
        // Lanes are <= 255: signed 32->16 pack never saturates.
        __m128i p8 = _mm_packus_epi16(_mm_packs_epi32(sel, zero), zero);
        std::uint32_t packed = static_cast<std::uint32_t>(
            _mm_cvtsi128_si32(p8));
        std::memcpy(out + i, &packed, 4);
    }
    __m128i hi = _mm_add_epi32(acc, _mm_srli_si128(acc, 8));
    hi = _mm_add_epi32(hi, _mm_srli_si128(hi, 4));
    std::uint32_t weight =
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(hi));
    if (i < n)
        weight += compressScalar(raw + i, n - i, shift, window_top,
                                 max_dim, out + i);
    return weight;
}

#elif defined(TPCP_SIMD_NEON)

// ---- NEON (aarch64 baseline) ----

std::uint32_t
compressNeon(const std::uint32_t *raw, std::size_t n, unsigned shift,
             unsigned window_top, std::uint8_t max_dim,
             std::uint8_t *out)
{
    const bool saturate = window_top < 32;
    const int32x4_t negShift = vdupq_n_s32(-static_cast<int>(shift));
    const int32x4_t negTop =
        vdupq_n_s32(saturate ? -static_cast<int>(window_top) : 0);
    const uint32x4_t lowMask = vdupq_n_u32(max_dim);
    const uint32x4_t maxVec = vdupq_n_u32(max_dim);
    const uint32x4_t zero = vdupq_n_u32(0);
    uint32x4_t acc = zero;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        uint32x4_t v = vld1q_u32(raw + i);
        uint32x4_t sel = vandq_u32(vshlq_u32(v, negShift), lowMask);
        if (saturate) {
            uint32x4_t eqz = vceqq_u32(vshlq_u32(v, negTop), zero);
            sel = vbslq_u32(eqz, sel, maxVec);
        }
        acc = vaddq_u32(acc, sel);
        uint16x4_t p16 = vmovn_u32(sel);
        uint8x8_t p8 = vmovn_u16(vcombine_u16(p16, vdup_n_u16(0)));
        std::uint32_t packed =
            vget_lane_u32(vreinterpret_u32_u8(p8), 0);
        std::memcpy(out + i, &packed, 4);
    }
    std::uint32_t weight = vaddvq_u32(acc);
    if (i < n)
        weight += compressScalar(raw + i, n - i, shift, window_top,
                                 max_dim, out + i);
    return weight;
}

#endif

} // namespace

std::uint32_t
compressU32(const std::uint32_t *raw, std::size_t n, unsigned shift,
            unsigned window_top, std::uint8_t max_dim,
            std::uint8_t *out)
{
#if defined(TPCP_SIMD_X86)
    return compressSse2(raw, n, shift, window_top, max_dim, out);
#elif defined(TPCP_SIMD_NEON)
    return compressNeon(raw, n, shift, window_top, max_dim, out);
#else
    return compressScalar(raw, n, shift, window_top, max_dim, out);
#endif
}

} // namespace tpcp::simd
