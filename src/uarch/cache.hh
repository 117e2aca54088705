/**
 * @file
 * A set-associative cache model with true-LRU replacement and
 * write-back/write-allocate policy, used for the L1 instruction, L1
 * data and unified L2 caches of the Table-1 machine.
 */

#ifndef TPCP_UARCH_CACHE_HH
#define TPCP_UARCH_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "uarch/machine_config.hh"

namespace tpcp::uarch
{

/** Outcome of a single cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false; ///< a dirty block was evicted
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Tag-only set-associative cache (no data storage is needed for
 * timing). Each set keeps its valid blocks in recency order, most
 * recently used first, so true LRU needs no per-line use stamp: a hit
 * moves its block to the front and a miss evicts the last valid way.
 */
class Cache
{
  public:
    /** Constructs a cache from its geometry; sizes must be powers of
     * two and consistent. */
    explicit Cache(const CacheConfig &config, std::string name);

    /**
     * Performs one access. On a miss the block is allocated and the
     * LRU way evicted; the result reports whether the victim was
     * dirty.
     *
     * @param addr byte address accessed
     * @param write true for stores (marks the block dirty)
     */
    CacheAccessResult access(Addr addr, bool write);

    /** True when @p addr currently hits, without updating state. */
    bool probe(Addr addr) const;

    /** Invalidates all lines and clears statistics. */
    void reset();

    /** Statistics accessor. */
    const CacheStats &stats() const { return stats_; }

    /** Configuration accessor. */
    const CacheConfig &config() const { return config_; }

    /** Cache name (for reporting). */
    const std::string &name() const { return name_; }

  private:
    CacheConfig config_;
    std::string name_;
    unsigned blockShift;
    unsigned tagShift; ///< block plus set-index bits
    std::uint64_t setMask;
    /**
     * config_.assoc words per set, `tag << 1 | dirty`, most recently
     * used first. Blocks fill ways in order and are invalidated only
     * by reset(), so the valid ways of a set are always its first
     * valid[set].
     */
    std::vector<std::uint64_t> ways;
    std::vector<unsigned> valid;
    CacheStats stats_;
};

} // namespace tpcp::uarch

#endif // TPCP_UARCH_CACHE_HH
