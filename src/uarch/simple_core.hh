/**
 * @file
 * A fast in-order cost-model core: issue-width-limited base cost plus
 * event penalties (cache misses, TLB misses, branch mispredictions,
 * unpipelined long-latency ops). Used where simulation speed matters
 * more than out-of-order fidelity; the OooCore models Table 1
 * faithfully.
 */

#ifndef TPCP_UARCH_SIMPLE_CORE_HH
#define TPCP_UARCH_SIMPLE_CORE_HH

#include "uarch/core.hh"

namespace tpcp::uarch
{

/**
 * In-order, blocking-cache cost model.
 *
 * Cycle accounting: each instruction consumes one issue slot
 * (issueWidth slots per cycle); every L1/L2/TLB miss and branch
 * misprediction adds its full penalty; integer and FP divides
 * serialize for their latency. This over-penalizes memory latency
 * relative to an out-of-order core but preserves the *differences*
 * between code regions, which is the signal phase classification
 * consumes.
 */
class SimpleCore final : public TimingCore
{
  public:
    explicit SimpleCore(const MachineConfig &config);

    void consume(const DynInst &inst) override;
    Cycles cycles() const override;
    void reset() override;
    std::string name() const override { return "simple"; }

  private:
    std::uint64_t slots = 0;     ///< issue slots consumed
    Cycles stallCycles = 0;      ///< accumulated penalty cycles
};

} // namespace tpcp::uarch

#endif // TPCP_UARCH_SIMPLE_CORE_HH
