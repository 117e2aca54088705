/**
 * @file
 * The timing-core interface. A core consumes the committed
 * dynamic-instruction stream and accounts cycles; the interval
 * profiler samples cycles() at interval boundaries to compute CPI.
 * Both cores model the Table-1 machine, so the base owns what they
 * share: the machine configuration, the cache hierarchy, the hybrid
 * branch predictor and the fetch-line and branch-resolution steps.
 */

#ifndef TPCP_UARCH_CORE_HH
#define TPCP_UARCH_CORE_HH

#include <cstdint>
#include <string>

#include "common/bitops.hh"
#include "common/types.hh"
#include "uarch/branch_pred.hh"
#include "uarch/cache_hierarchy.hh"
#include "uarch/dyn_inst.hh"
#include "uarch/machine_config.hh"

namespace tpcp::uarch
{

/** Aggregate core statistics (beyond cycle count). */
struct CoreStats
{
    InstCount insts = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    double
    cpi(Cycles cycles) const
    {
        return insts ? static_cast<double>(cycles) /
                           static_cast<double>(insts)
                     : 0.0;
    }
};

/**
 * A timing model of a processor core.
 *
 * Implementations are trace-driven: they see each committed DynInst in
 * program order and account the cycles it costs, including cache and
 * branch-predictor effects.
 */
class TimingCore
{
  public:
    explicit TimingCore(const MachineConfig &config)
        : config(config), hier(config), bp(config.branchPred),
          fetchLineShift(floorLog2(config.icache.blockBytes))
    {
    }

    virtual ~TimingCore() = default;

    /** Accounts one committed instruction. */
    virtual void consume(const DynInst &inst) = 0;

    /** Cycles elapsed up to the last consumed instruction. */
    virtual Cycles cycles() const = 0;

    /** Resets all timing and predictor/cache state. */
    virtual void reset() = 0;

    /** Model name for reporting ("simple", "ooo"). */
    virtual std::string name() const = 0;

    /** Aggregate statistics. */
    const CoreStats &stats() const { return stats_; }

    /** The core's memory hierarchy (for reporting). */
    const CacheHierarchy &memoryHierarchy() const { return hier; }

  protected:
    /**
     * Fetches @p pc: when it starts a new fetch line, accesses the
     * I-cache for that line. Returns the stall beyond the L1 hit time
     * (0 on the current line or on an L1 hit; accessInst() never
     * returns less than the hit time).
     */
    Cycles
    fetchLineStall(Addr pc)
    {
        Addr line = pc >> fetchLineShift;
        if (line == curFetchLine)
            return 0;
        curFetchLine = line;
        return hier.accessInst(pc) - config.icache.hitLatency;
    }

    /** Makes the next fetch start a new line (a redirected fetch
     * refills). */
    void redirectFetch() { curFetchLine = ~Addr(0); }

    /** Predicts, trains and counts the conditional branch @p inst;
     * returns true when it was mispredicted. */
    bool
    branchMispredicted(const DynInst &inst)
    {
        ++stats_.branches;
        bool wrong = predictAndTrain(bp, inst.pc, inst.taken);
        if (wrong)
            ++stats_.branchMispredicts;
        return wrong;
    }

    /** Clears the shared state: hierarchy, predictor, fetch line and
     * statistics. */
    void
    resetShared()
    {
        hier.reset();
        bp.reset();
        redirectFetch();
        stats_ = CoreStats{};
    }

    MachineConfig config;
    CacheHierarchy hier;
    CoreStats stats_;

  private:
    HybridPredictor bp;
    Addr curFetchLine = ~Addr(0);
    unsigned fetchLineShift;
};

} // namespace tpcp::uarch

#endif // TPCP_UARCH_CORE_HH
