/**
 * @file
 * Vector kernels for the classify hot path.
 *
 * Two dense uint8/uint32 kernels dominate classification (see
 * DESIGN.md "Hot path"): the past-signature-table match scan over
 * row-major signature storage, and signature compression (saturate
 * + shift + mask over the raw accumulators). The build compiles one
 * variant of each: SSE2 on x86-64 (the baseline of every x86-64
 * CPU), NEON on aarch64, and the portable scalar loops everywhere
 * else and under `-DTPCP_SIMD=OFF`. Every variant produces
 * *bit-identical* results — integer distances and weights are exact,
 * and all floating-point decisions stay in the callers.
 */

#ifndef TPCP_COMMON_SIMD_HH
#define TPCP_COMMON_SIMD_HH

#include <cstdint>
#include <cstddef>

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
 * Manhattan distances between query @p q and four consecutive table
 * rows of @p stride bytes (stride a multiple of kRowPad, query padded
 * to stride). The per-entry early-exit bound of the scan is
 * re-applied per kRowPad-byte chunk instead of per byte: after each
 * chunk, if every row's running distance has reached its entry's
 * @p bound, the remaining chunks are skipped and true is returned
 * (all four entries are proven non-matching; @p dist then holds
 * partial sums). Otherwise returns false with @p dist holding the
 * four *exact* distances.
 */
bool manhattanRows4(const std::uint8_t *q, const std::uint8_t *rows,
                    std::size_t stride, const std::uint64_t bound[4],
                    std::uint64_t dist[4]);

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
