/**
 * @file
 * The interval profiler: a trace sink that splits the committed
 * instruction stream into fixed-length intervals, feeding every
 * committed branch into one accumulator table per requested dimension
 * config and recording each interval's raw accumulator snapshot and
 * measured CPI into an IntervalProfile.
 */

#ifndef TPCP_TRACE_INTERVAL_PROFILER_HH
#define TPCP_TRACE_INTERVAL_PROFILER_HH

#include <vector>

#include "common/types.hh"
#include "phase/accumulator_table.hh"
#include "trace/interval_profile.hh"
#include "uarch/simulator.hh"

namespace tpcp::trace
{

/**
 * Observes the commit stream of one simulation and produces an
 * IntervalProfile.
 */
class IntervalProfiler : public uarch::TraceSink
{
  public:
    /**
     * @param core         the timing core being observed (for cycle
     *                     readings at interval boundaries)
     * @param workload     workload name recorded into the profile
     * @param interval_len instructions per interval
     * @param dims         accumulator dimension configs to record
     *                     (e.g. {8, 16, 32, 64})
     */
    IntervalProfiler(const uarch::TimingCore &core,
                     std::string workload, InstCount interval_len,
                     std::vector<unsigned> dims);

    void onCommit(const uarch::DynInst &inst) override;
    void onFinish() override;

    /** The accumulated profile (complete after onFinish()). */
    const IntervalProfile &profile() const { return profile_; }

    /** Moves the profile out (profiler is done afterwards). */
    IntervalProfile takeProfile() { return std::move(profile_); }

  private:
    void closeInterval();
    /** Replays the buffered branch events into every accumulator
     * config (batched recordBranches) and clears the buffer. */
    void flushPending();

    const uarch::TimingCore &core;
    InstCount intervalLen;
    std::vector<phase::AccumulatorTable> accums;
    IntervalProfile profile_;

    /** Branch commits buffered since the last flush. Replaying the
     * batch once per accumulator config amortizes the per-branch
     * call overhead and walks each table with better locality than
     * interleaving all configs at every branch. */
    std::vector<phase::BranchEvent> pending;

    InstCount instsInInterval = 0;
    InstCount instsSinceBranch = 0;
    Cycles cyclesAtIntervalStart = 0;
    bool finished = false;
};

} // namespace tpcp::trace

#endif // TPCP_TRACE_INTERVAL_PROFILER_HH
