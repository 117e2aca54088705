/**
 * @file
 * The workloads a command line names, for `tpcp` and the bench
 * harnesses alike: the positional workload names, or the ingested
 * `.tpcptrace` files of --trace=CSV (a trace is a first-class
 * workload), or all 11 synthetic workloads when neither is given.
 * Names and --trace are mutually exclusive. Every usage error (an
 * unknown name, both sources, an empty --trace list) exits 2 through
 * cli::usageError() before any profile is simulated.
 */

#ifndef TPCP_ANALYSIS_WORKLOAD_SET_HH
#define TPCP_ANALYSIS_WORKLOAD_SET_HH

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/parallel_runner.hh"
#include "common/cli.hh"
#include "trace/interval_profile.hh"
#include "trace/profile_cache.hh"

namespace tpcp::analysis
{

/** Named workloads or ingested traces, in command-line order. */
struct WorkloadSet
{
    /** Workload names; for traces, the names in their headers. */
    std::vector<std::string> names;
    /** The traces' profiles, parallel to names; empty for named
     * workloads, whose profiles load on demand. */
    std::vector<trace::IntervalProfile> traced;
    /** The traces' header source notes, parallel to traced. */
    std::vector<std::string> sources;

    std::size_t size() const { return names.size(); }

    /** Profile @p i: the trace's, or the named workload's, cached
     * or simulated under @p opts. Thread-safe. */
    trace::IntervalProfile
    profile(std::size_t i, const trace::ProfileOptions &opts) const;
};

/**
 * The workloads @p args names (see the file comment). With @p one,
 * exactly one workload must be named, by name or by a single trace.
 */
WorkloadSet selectWorkloads(const cli::Args &args, bool one = false);

/**
 * Every profile of selectWorkloads(@p args), loaded on args.jobs
 * threads under @p opts, in set order; progress goes to stderr.
 */
std::vector<NamedProfile>
loadWorkloads(const cli::Args &args,
              const trace::ProfileOptions &opts = {});

} // namespace tpcp::analysis

#endif // TPCP_ANALYSIS_WORKLOAD_SET_HH
