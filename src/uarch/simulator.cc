#include "uarch/simulator.hh"

#include "common/logging.hh"
#include "common/status.hh"
#include "uarch/ooo_core.hh"
#include "uarch/simple_core.hh"

namespace tpcp::uarch
{

Simulator::Simulator(const isa::Program &program,
                     RegionSchedule &schedule, TimingCore &core,
                     std::uint64_t seed)
    : program(program), schedule(schedule), core_(core),
      engine_(program, seed)
{
}

void
Simulator::addSink(TraceSink *sink)
{
    tpcp_assert(sink != nullptr);
    sinks.push_back(sink);
}

InstCount
Simulator::run(InstCount max_insts)
{
    // Dispatch once per run, not once per instruction. Any other core
    // runs the same loop through the virtual interface.
    if (auto *ooo = dynamic_cast<OooCore *>(&core_))
        return runOn(*ooo, max_insts);
    if (auto *simple = dynamic_cast<SimpleCore *>(&core_))
        return runOn(*simple, max_insts);
    return runOn(core_, max_insts);
}

template <typename Core>
InstCount
Simulator::runOn(Core &core, InstCount max_insts)
{
    InstCount done = 0;
    for (;;) {
        std::optional<Segment> seg = schedule.next();
        if (!seg)
            break;
        if (seg->insts == 0)
            continue;
        tpcp_assert(seg->region < program.regions.size(),
                    "schedule references unknown region");
        if (seg->region != engine_.currentRegion())
            engine_.enterRegion(seg->region);

        InstCount budget = seg->insts;
        while (budget > 0) {
            const DynInst &inst = engine_.next();
            core.consume(inst);
            for (TraceSink *sink : sinks)
                sink->onCommit(inst);
            --budget;
            ++done;
            if (max_insts && done >= max_insts) {
                for (TraceSink *sink : sinks)
                    sink->onFinish();
                return done;
            }
        }
    }
    for (TraceSink *sink : sinks)
        sink->onFinish();
    return done;
}

std::unique_ptr<TimingCore>
makeCore(const std::string &name, const MachineConfig &machine)
{
    if (name == "ooo")
        return std::make_unique<OooCore>(machine);
    if (name == "simple")
        return std::make_unique<SimpleCore>(machine);
    tpcp_raise("unknown timing core '", name,
               "' (expected 'ooo' or 'simple')");
}

} // namespace tpcp::uarch
