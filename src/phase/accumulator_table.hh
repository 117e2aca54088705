/**
 * @file
 * The accumulator table of the phase-tracking architecture (paper
 * Figure 1, step 2): an array of N saturating counters holding the
 * code signature of the current interval. Each committed branch PC is
 * hashed into one counter, which is incremented by the number of
 * instructions committed since the previous branch.
 */

#ifndef TPCP_PHASE_ACCUMULATOR_TABLE_HH
#define TPCP_PHASE_ACCUMULATOR_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"

namespace tpcp::phase
{

/** Accumulator counter width: 24 bits never overflow with
 * 10M-instruction intervals (paper section 4.2). */
inline constexpr unsigned kAccumBits = 24;
/** The value an accumulator saturates at. */
inline constexpr std::uint32_t kAccumMax =
    (std::uint32_t(1) << kAccumBits) - 1;

/** One committed branch: its PC and the instructions committed since
 * the previous branch. The interval profiler records batches of
 * these (AccumulatorTable::recordBranches). */
struct BranchEvent
{
    Addr pc;
    InstCount insts;
};

/**
 * N x kAccumBits saturating accumulators plus the running total used
 * by dynamic bit selection (paper section 4.2).
 */
class AccumulatorTable
{
  public:
    /**
     * @param num_counters number of accumulators (paper: 32 in [25],
     *                     16 for this paper's results)
     */
    explicit AccumulatorTable(unsigned num_counters);

    /**
     * Records one committed branch: hashes @p pc into a counter and
     * increments it (saturating) by @p insts, the instruction count
     * since the previous branch.
     */
    void
    recordBranch(Addr pc, InstCount insts)
    {
        unsigned idx = bucketOf(pc);
        std::uint64_t v = ctrs[idx] + insts;
        ctrs[idx] =
            v > kAccumMax ? kAccumMax : static_cast<std::uint32_t>(v);
        total += insts;
    }

    /**
     * Batched equivalent of calling recordBranch() once per event, in
     * order. The interval profiler buffers branch commits and feeds
     * them here to amortize per-branch call overhead.
     */
    void
    recordBranches(const BranchEvent *events, std::size_t n)
    {
        InstCount sum = 0;
        for (std::size_t i = 0; i < n; ++i) {
            unsigned idx = bucketOf(events[i].pc);
            std::uint64_t v = ctrs[idx] + events[i].insts;
            ctrs[idx] =
                v > kAccumMax ? kAccumMax : static_cast<std::uint32_t>(v);
            sum += events[i].insts;
        }
        total += sum;
    }

    /** Raw counter values of the current interval. */
    const std::vector<std::uint32_t> &counters() const { return ctrs; }

    /**
     * Total amount added across all counters this interval (tracked
     * separately so the average counter value is exact even with
     * saturation).
     */
    InstCount totalIncrement() const { return total; }

    /** Number of counters (projection dimensions). */
    unsigned numCounters() const { return numCtrs; }

    /** Clears all counters for the next interval. */
    void reset();

  private:
    /** Same bucket as hashToBucket(pc, numCtrs), with the
     * power-of-two test hoisted out of the per-branch path. */
    unsigned
    bucketOf(Addr pc) const
    {
        std::uint64_t h = mix64(pc);
        return usePow2Mask
                   ? static_cast<unsigned>(h & (numCtrs - 1))
                   : static_cast<unsigned>(h % numCtrs);
    }

    unsigned numCtrs;
    /** True when numCtrs is a power of two (mask instead of mod). */
    bool usePow2Mask;
    std::vector<std::uint32_t> ctrs;
    InstCount total = 0;
};

} // namespace tpcp::phase

#endif // TPCP_PHASE_ACCUMULATOR_TABLE_HH
