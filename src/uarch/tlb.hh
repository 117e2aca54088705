/**
 * @file
 * A set-associative TLB model. The Table-1 machine uses 8K-byte pages
 * with a fixed 30-cycle miss latency.
 */

#ifndef TPCP_UARCH_TLB_HH
#define TPCP_UARCH_TLB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "uarch/machine_config.hh"

namespace tpcp::uarch
{

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Translation lookaside buffer: a set-associative LRU array of page
 * numbers, each set kept in recency order like Cache's. Translation
 * itself is the identity (the synthetic ISA uses flat addresses);
 * only the hit/miss timing matters.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /** Accesses the page containing @p addr; returns true on hit. */
    bool access(Addr addr);

    /** Miss latency in cycles from the configuration. */
    Cycles missLatency() const { return config_.missLatency; }

    /** Invalidates all entries and clears statistics. */
    void reset();

    const TlbStats &stats() const { return stats_; }

  private:
    TlbConfig config_;
    unsigned pageShift;
    std::uint64_t setMask;
    /** config_.assoc page numbers per set, most recently used first;
     * the first valid[set] are valid. */
    std::vector<std::uint64_t> vpns;
    std::vector<unsigned> valid;
    TlbStats stats_;
};

} // namespace tpcp::uarch

#endif // TPCP_UARCH_TLB_HH
