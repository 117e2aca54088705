/**
 * @file
 * Out-of-order timing core implementing the paper's Table-1 machine:
 * 4-wide fetch/issue/commit, 64-entry ROB, load/store queue, the
 * Table-1 functional units, split L1s + unified L2 + TLBs, and the
 * hybrid branch predictor.
 *
 * The model is trace-driven dataflow scheduling: for each committed
 * instruction we compute fetch, issue, complete and commit cycles
 * subject to (a) fetch bandwidth and I-cache/redirect stalls, (b) ROB
 * and LSQ occupancy, (c) true register dependences, (d) functional
 * unit structural hazards, (e) memory latency, and (f) in-order
 * commit with commit-width limits. This is the standard first-order
 * O(1)-per-instruction OoO model; wrong-path fetch effects are not
 * modeled (mispredicted branches redirect fetch at resolve time).
 */

#ifndef TPCP_UARCH_OOO_CORE_HH
#define TPCP_UARCH_OOO_CORE_HH

#include <array>
#include <vector>

#include "uarch/core.hh"

namespace tpcp::uarch
{

/** Table-1 out-of-order core model. */
class OooCore final : public TimingCore
{
  public:
    explicit OooCore(const MachineConfig &config);

    void consume(const DynInst &inst) override;
    Cycles cycles() const override;
    void reset() override;
    std::string name() const override { return "ooo"; }

  private:
    /** Earliest-available functional unit of class @p fu; reserves it
     * from @p ready for @p occupancy cycles and returns issue time. */
    Cycles allocFu(isa::FuClass fu, Cycles ready, Cycles occupancy);

    /** Cycle each architectural register's value becomes available. */
    std::vector<Cycles> regReady;
    /** Next-free cycle per functional unit, grouped by class. */
    std::array<std::vector<Cycles>, isa::numFuClasses> fuFree;
    /** Commit cycle of the last robEntries instructions (circular;
     * 0 until the slot is first written, which never stalls). */
    std::vector<Cycles> robCommit;
    /** Completion cycle of the last lsqEntries memory ops (circular,
     * 0 until first written). */
    std::vector<Cycles> lsqComplete;

    unsigned robSlot = 0;      ///< ROB entry of the next instruction
    unsigned lsqSlot = 0;      ///< LSQ entry of the next memory op
    Cycles fetchCycle = 0;
    unsigned fetchedThisCycle = 0;
    Cycles lastCommit = 0;
    Cycles commitCycleOpen = 0;   ///< cycle commits are filling
    unsigned commitsThisCycle = 0;
};

} // namespace tpcp::uarch

#endif // TPCP_UARCH_OOO_CORE_HH
