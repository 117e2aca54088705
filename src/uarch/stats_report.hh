/**
 * @file
 * End-of-simulation statistics for a timing core: a human-readable
 * report of instruction/cycle totals, CPI, branch prediction and
 * cache/TLB miss rates - the numbers a SimpleScalar/gem5 user expects
 * at the end of a run - and the per-structure access counts an energy
 * model charges. Every core has the Table-1 hierarchy, so both always
 * cover every cache and TLB.
 */

#ifndef TPCP_UARCH_STATS_REPORT_HH
#define TPCP_UARCH_STATS_REPORT_HH

#include <string>

#include "uarch/core.hh"

namespace tpcp::uarch
{

/**
 * Per-structure activity counters of one run: the inputs an energy
 * model charges dynamic (per-access) energy against, next to the
 * cycle count its static (leakage) energy scales with. Collected
 * from a core's hierarchy counters or estimated from an interval's
 * instruction/cycle totals (adapt::EnergyModel::estimateAccesses).
 */
struct AccessCounts
{
    Cycles cycles = 0;
    InstCount insts = 0;
    std::uint64_t icacheAccesses = 0;
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t itlbAccesses = 0;
    std::uint64_t dtlbAccesses = 0;
};

/** Snapshot of @p core's activity counters. */
AccessCounts collectAccessCounts(const TimingCore &core);

/**
 * Formats a full statistics report for @p core: the architectural
 * counters, then the accesses and miss rates of its caches and TLBs.
 */
std::string formatCoreStats(const TimingCore &core);

} // namespace tpcp::uarch

#endif // TPCP_UARCH_STATS_REPORT_HH
