#include "trace/interval_profiler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tpcp::trace
{

namespace
{
/** Cap on buffered branch events between flushes (bounds memory for
 * branch-dense intervals; ~64 KiB of events). */
constexpr std::size_t kPendingFlushThreshold = 4096;
} // namespace

IntervalProfiler::IntervalProfiler(const uarch::TimingCore &core,
                                   std::string workload,
                                   InstCount interval_len,
                                   std::vector<unsigned> dims)
    : core(core), intervalLen(interval_len),
      profile_(std::move(workload), core.name(), interval_len, dims)
{
    tpcp_assert(interval_len > 0);
    for (unsigned d : dims)
        accums.emplace_back(d);
    pending.reserve(kPendingFlushThreshold);
}

void
IntervalProfiler::onCommit(const uarch::DynInst &inst)
{
    tpcp_assert(!finished, "profiler already finished");
    ++instsInInterval;
    ++instsSinceBranch;

    if (inst.isControl()) {
        // Buffer (branch PC, instructions since the previous branch);
        // the batch is replayed into every accumulator configuration
        // at the interval boundary. Event order per accumulator is
        // identical to recording at every branch, so the counters
        // (and any saturation) come out the same.
        pending.push_back({inst.pc, instsSinceBranch});
        if (pending.size() >= kPendingFlushThreshold)
            flushPending();
        instsSinceBranch = 0;
    }

    if (instsInInterval >= intervalLen)
        closeInterval();
}

void
IntervalProfiler::flushPending()
{
    for (auto &acc : accums)
        acc.recordBranches(pending.data(), pending.size());
    pending.clear();
}

void
IntervalProfiler::closeInterval()
{
    flushPending();
    IntervalRecord rec;
    Cycles now = core.cycles();
    rec.insts = instsInInterval;
    rec.cpi = static_cast<double>(now - cyclesAtIntervalStart) /
              static_cast<double>(instsInInterval);
    rec.accumTotal = accums.front().totalIncrement();
    std::uint32_t *out = profile_.append(rec);
    for (auto &acc : accums) {
        out = std::copy(acc.counters().begin(), acc.counters().end(),
                        out);
        acc.reset();
    }

    cyclesAtIntervalStart = now;
    instsInInterval = 0;
    // Instructions committed since the last branch carry into the
    // next interval's first branch record, exactly as the hardware
    // queue would deliver them.
}

void
IntervalProfiler::onFinish()
{
    // The final partial interval (if any) is dropped: the paper
    // profiles complete fixed-length intervals only.
    finished = true;
}

} // namespace tpcp::trace
