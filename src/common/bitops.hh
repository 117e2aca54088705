/**
 * @file
 * Small bit-manipulation helpers used throughout the simulator and the
 * phase-tracking hardware model (hashing, bit-field selection and
 * power-of-two table indexing).
 */

#ifndef TPCP_COMMON_BITOPS_HH
#define TPCP_COMMON_BITOPS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/logging.hh"

namespace tpcp
{

/** Returns true when @p v is a (non-zero) power of two. */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(@p v); @p v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v | 1));
}

/** Ceiling of log2(@p v); @p v must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return floorLog2(v) + (isPowerOf2(v) ? 0u : 1u);
}

/**
 * Number of bits needed to represent the value @p v.
 * bitsFor(0) == 1, bitsFor(1) == 1, bitsFor(2) == 2, bitsFor(255) == 8.
 */
constexpr unsigned
bitsFor(std::uint64_t v)
{
    return v == 0 ? 1u : floorLog2(v) + 1u;
}

/** A mask with the low @p n bits set (n in [0, 64]). */
constexpr std::uint64_t
maskLow(unsigned n)
{
    return n >= 64 ? ~std::uint64_t(0) : ((std::uint64_t(1) << n) - 1);
}

/**
 * Extracts the bit field [lo, lo+width) of @p v, i.e. width bits
 * starting at bit position lo (bit 0 is least significant).
 */
constexpr std::uint64_t
bitField(std::uint64_t v, unsigned lo, unsigned width)
{
    return (v >> lo) & maskLow(width);
}

/**
 * Mixes the bits of a 64-bit value; used to hash branch PCs into
 * accumulator counters and prediction-table sets. This is the
 * finalization step of SplitMix64, which has full avalanche.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/**
 * FNV-1a 64-bit hash of a byte range. Stable across platforms
 * (unlike std::hash): it keys the trace-ingest cache and seeds every
 * random stream derived from a name.
 */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** fnv1a64() of the characters of @p s. */
inline std::uint64_t
fnv1a64(std::string_view s)
{
    return fnv1a64(s.data(), s.size());
}

/** Hashes @p x into a bucket index in [0, buckets); buckets > 0. */
inline unsigned
hashToBucket(std::uint64_t x, unsigned buckets)
{
    tpcp_assert(buckets > 0);
    if (isPowerOf2(buckets))
        return static_cast<unsigned>(mix64(x) & (buckets - 1));
    return static_cast<unsigned>(mix64(x) % buckets);
}

} // namespace tpcp

#endif // TPCP_COMMON_BITOPS_HH
