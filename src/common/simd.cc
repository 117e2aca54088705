#include "common/simd.hh"

#include <cstring>

#if defined(__x86_64__) && !defined(TPCP_SIMD_DISABLED)
#define TPCP_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && !defined(TPCP_SIMD_DISABLED)
#define TPCP_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace tpcp::simd
{

namespace
{

/** True when @p level is compiled in and runs on this CPU. */
bool
levelAvailable(Level level)
{
    switch (level) {
      case Level::Scalar:
        return true;
      case Level::Sse2:
#if defined(TPCP_SIMD_X86)
        return true; // baseline of x86-64
#else
        return false;
#endif
      case Level::Avx2:
#if defined(TPCP_SIMD_X86)
        return __builtin_cpu_supports("avx2");
#else
        return false;
#endif
      case Level::Neon:
#if defined(TPCP_SIMD_NEON)
        return true; // baseline of aarch64
#else
        return false;
#endif
    }
    return false;
}

Level
detectBest()
{
#if defined(TPCP_SIMD_X86)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
    return Level::Sse2;
#elif defined(TPCP_SIMD_NEON)
    return Level::Neon;
#else
    return Level::Scalar;
#endif
}

/** Function-local static avoids any static-init-order hazard; the
 * guard branch is one predictable test per kernel dispatch. */
Level &
activeRef()
{
    static Level level = detectBest();
    return level;
}

// ---- Scalar kernels (the reference semantics) ----

std::uint64_t
manhattanScalar(const std::uint8_t *a, const std::uint8_t *b,
                std::size_t n)
{
    std::uint64_t dist = 0;
    for (std::size_t i = 0; i < n; ++i) {
        int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
        dist += static_cast<std::uint64_t>(d < 0 ? -d : d);
    }
    return dist;
}

bool
manhattanRows4Scalar(const std::uint8_t *q, const std::uint8_t *rows,
                     std::size_t stride, const std::uint64_t bound[4],
                     std::uint64_t dist[4])
{
    dist[0] = dist[1] = dist[2] = dist[3] = 0;
    for (std::size_t c = 0; c < stride; c += kRowPad) {
        for (unsigned g = 0; g < 4; ++g)
            dist[g] += manhattanScalar(q + c, rows + g * stride + c,
                                       kRowPad);
        if (c + kRowPad < stride && dist[0] >= bound[0] &&
            dist[1] >= bound[1] && dist[2] >= bound[2] &&
            dist[3] >= bound[3])
            return true;
    }
    return false;
}

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

// ---- SSE2 kernels (x86-64 baseline, no extra target flags) ----

/** Sum of absolute byte differences of one 16-byte chunk. */
inline std::uint64_t
sad16(const std::uint8_t *a, const std::uint8_t *b)
{
    __m128i va = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(a));
    __m128i vb = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(b));
    __m128i d = _mm_sub_epi8(_mm_max_epu8(va, vb),
                             _mm_min_epu8(va, vb));
    __m128i s = _mm_sad_epu8(d, _mm_setzero_si128());
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<std::uint64_t>(_mm_cvtsi128_si64(
               _mm_unpackhi_epi64(s, s)));
}

std::uint64_t
manhattanSse2(const std::uint8_t *a, const std::uint8_t *b,
              std::size_t n)
{
    std::uint64_t dist = 0;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        dist += sad16(a + i, b + i);
    if (i < n)
        dist += manhattanScalar(a + i, b + i, n - i);
    return dist;
}

bool
manhattanRows4Sse2(const std::uint8_t *q, const std::uint8_t *rows,
                   std::size_t stride, const std::uint64_t bound[4],
                   std::uint64_t dist[4])
{
    dist[0] = dist[1] = dist[2] = dist[3] = 0;
    for (std::size_t c = 0; c < stride; c += 16) {
        dist[0] += sad16(q + c, rows + c);
        dist[1] += sad16(q + c, rows + stride + c);
        dist[2] += sad16(q + c, rows + 2 * stride + c);
        dist[3] += sad16(q + c, rows + 3 * stride + c);
        if (c + 16 < stride && dist[0] >= bound[0] &&
            dist[1] >= bound[1] && dist[2] >= bound[2] &&
            dist[3] >= bound[3])
            return true;
    }
    return false;
}

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

// ---- AVX2 kernels (runtime-gated; target attribute keeps the rest
// of the binary at the default ISA) ----

__attribute__((target("avx2"))) inline std::uint64_t
sad32(const std::uint8_t *a, const std::uint8_t *b)
{
    __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(a));
    __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(b));
    __m256i d = _mm256_sub_epi8(_mm256_max_epu8(va, vb),
                                _mm256_min_epu8(va, vb));
    __m256i s = _mm256_sad_epu8(d, _mm256_setzero_si256());
    __m128i lo = _mm256_castsi256_si128(s);
    __m128i hi = _mm256_extracti128_si256(s, 1);
    __m128i sum = _mm_add_epi64(lo, hi);
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(sum)) +
           static_cast<std::uint64_t>(_mm_cvtsi128_si64(
               _mm_unpackhi_epi64(sum, sum)));
}

__attribute__((target("avx2"))) std::uint64_t
manhattanAvx2(const std::uint8_t *a, const std::uint8_t *b,
              std::size_t n)
{
    std::uint64_t dist = 0;
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        dist += sad32(a + i, b + i);
    for (; i + 16 <= n; i += 16)
        dist += sad16(a + i, b + i);
    if (i < n)
        dist += manhattanScalar(a + i, b + i, n - i);
    return dist;
}

__attribute__((target("avx2"))) bool
manhattanRows4Avx2(const std::uint8_t *q, const std::uint8_t *rows,
                   std::size_t stride, const std::uint64_t bound[4],
                   std::uint64_t dist[4])
{
    dist[0] = dist[1] = dist[2] = dist[3] = 0;
    if (stride % 32 == 0) {
        for (std::size_t c = 0; c < stride; c += 32) {
            dist[0] += sad32(q + c, rows + c);
            dist[1] += sad32(q + c, rows + stride + c);
            dist[2] += sad32(q + c, rows + 2 * stride + c);
            dist[3] += sad32(q + c, rows + 3 * stride + c);
            if (c + 32 < stride && dist[0] >= bound[0] &&
                dist[1] >= bound[1] && dist[2] >= bound[2] &&
                dist[3] >= bound[3])
                return true;
        }
        return false;
    }
    for (std::size_t c = 0; c < stride; c += 16) {
        dist[0] += sad16(q + c, rows + c);
        dist[1] += sad16(q + c, rows + stride + c);
        dist[2] += sad16(q + c, rows + 2 * stride + c);
        dist[3] += sad16(q + c, rows + 3 * stride + c);
        if (c + 16 < stride && dist[0] >= bound[0] &&
            dist[1] >= bound[1] && dist[2] >= bound[2] &&
            dist[3] >= bound[3])
            return true;
    }
    return false;
}

__attribute__((target("avx2"))) std::uint32_t
compressAvx2(const std::uint32_t *raw, std::size_t n, unsigned shift,
             unsigned window_top, std::uint8_t max_dim,
             std::uint8_t *out)
{
    const bool saturate = window_top < 32;
    const __m128i shiftCnt = _mm_cvtsi32_si128(static_cast<int>(shift));
    const __m128i topCnt =
        _mm_cvtsi32_si128(static_cast<int>(window_top));
    const __m256i lowMask = _mm256_set1_epi32(max_dim);
    const __m256i maxVec = _mm256_set1_epi32(max_dim);
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(raw + i));
        __m256i sel =
            _mm256_and_si256(_mm256_srl_epi32(v, shiftCnt), lowMask);
        if (saturate) {
            __m256i eqz =
                _mm256_cmpeq_epi32(_mm256_srl_epi32(v, topCnt), zero);
            sel = _mm256_blendv_epi8(maxVec, sel, eqz);
        }
        acc = _mm256_add_epi32(acc, sel);
        __m128i lo = _mm256_castsi256_si128(sel);
        __m128i hi = _mm256_extracti128_si256(sel, 1);
        // Lanes are <= 255: signed 32->16 pack never saturates.
        __m128i p8 = _mm_packus_epi16(_mm_packs_epi32(lo, hi),
                                      _mm_setzero_si128());
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out + i), p8);
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
    s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
    std::uint32_t weight =
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
    if (i < n)
        weight += compressScalar(raw + i, n - i, shift, window_top,
                                 max_dim, out + i);
    return weight;
}

#endif // TPCP_SIMD_X86

#if defined(TPCP_SIMD_NEON)

inline std::uint64_t
sadNeon16(const std::uint8_t *a, const std::uint8_t *b)
{
    uint8x16_t va = vld1q_u8(a);
    uint8x16_t vb = vld1q_u8(b);
    return vaddlvq_u8(vabdq_u8(va, vb));
}

std::uint64_t
manhattanNeon(const std::uint8_t *a, const std::uint8_t *b,
              std::size_t n)
{
    std::uint64_t dist = 0;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        dist += sadNeon16(a + i, b + i);
    if (i < n)
        dist += manhattanScalar(a + i, b + i, n - i);
    return dist;
}

bool
manhattanRows4Neon(const std::uint8_t *q, const std::uint8_t *rows,
                   std::size_t stride, const std::uint64_t bound[4],
                   std::uint64_t dist[4])
{
    dist[0] = dist[1] = dist[2] = dist[3] = 0;
    for (std::size_t c = 0; c < stride; c += 16) {
        dist[0] += sadNeon16(q + c, rows + c);
        dist[1] += sadNeon16(q + c, rows + stride + c);
        dist[2] += sadNeon16(q + c, rows + 2 * stride + c);
        dist[3] += sadNeon16(q + c, rows + 3 * stride + c);
        if (c + 16 < stride && dist[0] >= bound[0] &&
            dist[1] >= bound[1] && dist[2] >= bound[2] &&
            dist[3] >= bound[3])
            return true;
    }
    return false;
}

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

#endif // TPCP_SIMD_NEON

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Scalar:
        return "scalar";
      case Level::Sse2:
        return "sse2";
      case Level::Avx2:
        return "avx2";
      case Level::Neon:
        return "neon";
    }
    return "unknown";
}

Level
bestSupported()
{
    static Level best = detectBest();
    return best;
}

Level
active()
{
    return activeRef();
}

Level
forceLevel(Level level)
{
    if (levelAvailable(level))
        activeRef() = level;
    return activeRef();
}

std::uint64_t
manhattanU8(const std::uint8_t *a, const std::uint8_t *b,
            std::size_t n)
{
    switch (active()) {
#if defined(TPCP_SIMD_X86)
      case Level::Avx2:
        return manhattanAvx2(a, b, n);
      case Level::Sse2:
        return manhattanSse2(a, b, n);
#endif
#if defined(TPCP_SIMD_NEON)
      case Level::Neon:
        return manhattanNeon(a, b, n);
#endif
      default:
        return manhattanScalar(a, b, n);
    }
}

bool
manhattanRows4(const std::uint8_t *q, const std::uint8_t *rows,
               std::size_t stride, const std::uint64_t bound[4],
               std::uint64_t dist[4])
{
    switch (active()) {
#if defined(TPCP_SIMD_X86)
      case Level::Avx2:
        return manhattanRows4Avx2(q, rows, stride, bound, dist);
      case Level::Sse2:
        return manhattanRows4Sse2(q, rows, stride, bound, dist);
#endif
#if defined(TPCP_SIMD_NEON)
      case Level::Neon:
        return manhattanRows4Neon(q, rows, stride, bound, dist);
#endif
      default:
        return manhattanRows4Scalar(q, rows, stride, bound, dist);
    }
}

std::uint32_t
compressU32(const std::uint32_t *raw, std::size_t n, unsigned shift,
            unsigned window_top, std::uint8_t max_dim,
            std::uint8_t *out)
{
    switch (active()) {
#if defined(TPCP_SIMD_X86)
      case Level::Avx2:
        return compressAvx2(raw, n, shift, window_top, max_dim, out);
      case Level::Sse2:
        return compressSse2(raw, n, shift, window_top, max_dim, out);
#endif
#if defined(TPCP_SIMD_NEON)
      case Level::Neon:
        return compressNeon(raw, n, shift, window_top, max_dim, out);
#endif
      default:
        return compressScalar(raw, n, shift, window_top, max_dim,
                              out);
    }
}

} // namespace tpcp::simd
