/**
 * @file
 * The top-level simulation driver: executes a Program under a region
 * schedule on a timing core, delivering every committed instruction to
 * registered trace sinks (e.g. the interval profiler).
 */

#ifndef TPCP_UARCH_SIMULATOR_HH
#define TPCP_UARCH_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"
#include "uarch/core.hh"
#include "uarch/exec_engine.hh"
#include "uarch/schedule.hh"

namespace tpcp::uarch
{

/** Receives the committed instruction stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per committed instruction, in program order. */
    virtual void onCommit(const DynInst &inst) = 0;

    /** Called when simulation finishes (flush partial state). */
    virtual void onFinish() {}
};

/**
 * Drives program execution: pulls segments from the schedule, executes
 * them instruction by instruction on the timing core, and fans the
 * committed stream out to sinks.
 */
class Simulator
{
  public:
    /**
     * @param program  static program (must outlive the simulator)
     * @param schedule region schedule (must outlive the simulator)
     * @param core     timing core accounting cycles
     * @param seed     seed for branch/address randomness
     */
    Simulator(const isa::Program &program, RegionSchedule &schedule,
              TimingCore &core, std::uint64_t seed);

    /** Registers a sink; not owned. */
    void addSink(TraceSink *sink);

    /**
     * Runs until the schedule is exhausted or @p max_insts committed
     * instructions, whichever comes first (0 = unlimited). Returns
     * the number of instructions executed.
     */
    InstCount run(InstCount max_insts = 0);

    /** The timing core in use. */
    TimingCore &core() { return core_; }

    /** The execution engine (exposes current region, counts). */
    const ExecEngine &engine() const { return engine_; }

  private:
    /** run() on @p core's concrete type: a final core's consume() is
     * a direct, inlinable call. */
    template <typename Core>
    InstCount runOn(Core &core, InstCount max_insts);

    const isa::Program &program;
    RegionSchedule &schedule;
    TimingCore &core_;
    ExecEngine engine_;
    std::vector<TraceSink *> sinks;
};

/** A new timing core by name on @p machine: "ooo" (OooCore) or
 * "simple" (SimpleCore). Raises tpcp::Error on any other name. */
std::unique_ptr<TimingCore> makeCore(const std::string &name,
                                     const MachineConfig &machine);

} // namespace tpcp::uarch

#endif // TPCP_UARCH_SIMULATOR_HH
