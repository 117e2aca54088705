/**
 * @file
 * Named synthetic workloads standing in for the paper's SPEC CPU2000
 * benchmark/input pairs: ammp, bzip2/graphic (bzip2/g),
 * bzip2/program (bzip2/p), galgel, gcc/166 (gcc/1), gcc/scilab
 * (gcc/s), gzip/graphic (gzip/g), gzip/program (gzip/p), mcf,
 * perl/diffmail (perl/d) and perl/splitmail (perl/s).
 *
 * Each model is a static Program plus a phase script. The models are
 * tuned to reproduce the per-benchmark *shapes* the paper reports:
 * gcc/perl/galgel are the hardest to classify, bzip and gzip have
 * hierarchical phase patterns, mcf is miss-dominated with behavior
 * drift that makes a single similarity threshold fit poorly, and
 * gzip/g and perl/d have exceptionally long stable phases.
 */

#ifndef TPCP_WORKLOAD_WORKLOAD_HH
#define TPCP_WORKLOAD_WORKLOAD_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "isa/program.hh"
#include "workload/phase_script.hh"

namespace tpcp::workload
{

/** A complete benchmark: static code plus its execution script. */
struct Workload
{
    std::string name;
    std::string description;
    isa::Program program;
    ScriptPtr script;
    std::uint64_t seed = 0;

    /**
     * Expands the script into a concrete schedule. Each call returns
     * an identical schedule (the expansion RNG is derived from the
     * workload seed).
     */
    std::unique_ptr<ExpandedSchedule> makeSchedule() const;

    /** Seed of the simulator's branch and address randomness when
     * this workload is simulated. */
    std::uint64_t simSeed() const { return seed ^ 0xabcdef12345ULL; }

    /** Total scheduled instructions (expands the script once). */
    InstCount totalInsts() const;
};

/** The 11 benchmark/input names, in the paper's reporting order. */
const std::vector<std::string> &workloadNames();

/** True when @p name is a known workload. */
bool isWorkloadName(std::string_view name);

/**
 * Builds the named workload. Fatal (user error) on unknown names;
 * see workloadNames().
 */
Workload makeWorkload(std::string_view name);

} // namespace tpcp::workload

#endif // TPCP_WORKLOAD_WORKLOAD_HH
