#include "uarch/simple_core.hh"

namespace tpcp::uarch
{

SimpleCore::SimpleCore(const MachineConfig &config) : TimingCore(config)
{
}

void
SimpleCore::consume(const DynInst &inst)
{
    ++stats_.insts;
    ++slots;

    // Instruction fetch: one I-cache access per line, as a sequential
    // fetch unit would perform.
    stallCycles += fetchLineStall(inst.pc);

    const isa::OpTraits traits = inst.staticInst->traits();

    if (inst.isMem()) {
        bool write = !inst.isLoad();
        Cycles lat = hier.accessData(inst.memAddr, write);
        if (inst.isLoad()) {
            ++stats_.loads;
            // Blocking load: pay the full beyond-L1 latency.
            stallCycles += lat - config.dcache.hitLatency;
        } else {
            ++stats_.stores;
            // Stores retire through a store buffer; no stall.
        }
    } else if (traits.fu == isa::FuClass::IntMultDiv ||
               traits.fu == isa::FuClass::FpMultDiv) {
        // Unpipelined long-latency ops serialize in-order issue.
        if (traits.latency > 1)
            stallCycles += traits.latency - 1;
    }

    if (inst.isConditional()) {
        if (branchMispredicted(inst))
            stallCycles += config.branchPred.mispredictPenalty;
        if (inst.taken)
            redirectFetch();
    } else if (inst.staticInst->op == isa::OpClass::Jump) {
        redirectFetch();
    }
}

Cycles
SimpleCore::cycles() const
{
    return slots / config.core.issueWidth + stallCycles;
}

void
SimpleCore::reset()
{
    resetShared();
    slots = 0;
    stallCycles = 0;
}

} // namespace tpcp::uarch
