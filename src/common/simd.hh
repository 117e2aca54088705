/**
 * @file
 * Runtime-dispatched SIMD kernels for the classify hot path.
 *
 * Three dense uint8/uint32 kernels dominate classification (see
 * DESIGN.md "Hot path"): the Manhattan distance between compressed
 * signatures, the past-signature-table match scan over row-major
 * signature storage, and signature compression (saturate + shift +
 * mask over the raw accumulators). Each has a portable scalar
 * implementation plus SSE2/AVX2 (x86-64) and NEON (aarch64)
 * variants selected at runtime; every variant produces *bit-identical*
 * results — integer distances and weights are exact, and all
 * floating-point decisions stay in the callers, which are shared by
 * every dispatch level.
 *
 * Dispatch contract:
 *  - the build bakes in which variants exist (`-DTPCP_SIMD=OFF`
 *    compiles the scalar path only; AVX2 uses the GCC/Clang
 *    `target("avx2")` function attribute so the rest of the build
 *    keeps the default ISA);
 *  - the active level is chosen once at first use from the CPU
 *    (`__builtin_cpu_supports`); forceLevel() lowers it so the
 *    scalar-vs-SIMD equivalence tests run every level on one
 *    machine.
 */

#ifndef TPCP_COMMON_SIMD_HH
#define TPCP_COMMON_SIMD_HH

#include <cstdint>
#include <cstddef>

namespace tpcp::simd
{

/** Available kernel implementations, in increasing preference. */
enum class Level
{
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
    Neon = 3,
};

/** Human-readable level name ("scalar", "sse2", ...). */
const char *levelName(Level level);

/** Best level compiled into this binary and supported by this CPU. */
Level bestSupported();

/** Currently active level (init: bestSupported()). */
Level active();

/**
 * Forces the active level, clamped to bestSupported(); returns the
 * level actually installed. Test hook — not thread-safe against
 * concurrent kernel calls.
 */
Level forceLevel(Level level);

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

/** Exact Manhattan distance between two uint8 vectors of @p n
 * elements (no padding requirement; any n). */
std::uint64_t manhattanU8(const std::uint8_t *a, const std::uint8_t *b,
                          std::size_t n);

/**
 * Manhattan distances between query @p q and four consecutive table
 * rows of @p stride bytes (stride a multiple of kRowPad, query padded
 * to stride). The per-entry early-exit bound of the scan is
 * re-applied per vector chunk instead of per byte: after each chunk,
 * if every row's running distance has reached its entry's @p bound,
 * the remaining chunks are skipped and true is returned (all four
 * entries are proven non-matching; @p dist then holds partial sums).
 * Otherwise returns false with @p dist holding the four *exact*
 * distances.
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
