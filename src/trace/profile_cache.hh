/**
 * @file
 * Builds interval profiles for workloads, with a transparent on-disk
 * cache: the timing simulation for a given (workload, core, interval
 * length, dimension set, machine) runs once and is reused by every
 * experiment binary afterwards.
 *
 * Cache files are `.tpcptrace` files (trace/trace_file.hh) with an
 * empty source note, so every byte is CRC- or structure-checked on
 * load and a corrupt file is rejected and re-simulated; `tpcp trace
 * info` and `--trace=` read them like any other trace.
 *
 * The cache is safe to share between concurrent runners: files are
 * written to a temp name and atomically renamed into place (readers
 * never see a torn file), cached profiles are validated against the
 * full machine-configuration hash on load, and an in-process
 * per-path mutex ensures a stampede of getProfile() calls for the
 * same profile simulates it exactly once.
 */

#ifndef TPCP_TRACE_PROFILE_CACHE_HH
#define TPCP_TRACE_PROFILE_CACHE_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/interval_profile.hh"
#include "uarch/machine_config.hh"
#include "workload/workload.hh"

namespace tpcp::trace
{

/** Profiling options. */
struct ProfileOptions
{
    /** Instructions per interval (repository default; the paper used
     * 10M - see DESIGN.md on scaling). */
    InstCount intervalLen = 100'000;
    /** Accumulator dimension configs to record. */
    std::vector<unsigned> dims = {8, 16, 32, 64};
    /** Timing core: "ooo" (Table 1) or "simple" (fast cost model). */
    std::string coreName = "ooo";
    /** Cache directory; empty uses $TPCP_PROFILE_DIR, or
     * "tpcp_profiles" when that is unset or empty. */
    std::string cacheDir;
    /** Disable to force re-simulation. */
    bool useCache = true;
    /** Strict mode: when no valid cache file exists for the profile,
     * raise tpcp::Error instead of silently re-simulating. `tpcp
     * profile all --require-cache` uses this to audit a cache
     * directory — corrupt or missing files surface as per-workload
     * errors instead of quiet rebuild time. */
    bool requireCache = false;
    /** Machine to simulate (defaults to the paper's Table 1). The
     * cache file name carries a hash of non-default machines. */
    uarch::MachineConfig machine = uarch::MachineConfig::table1();
};

/**
 * Runs the full timing simulation of @p workload and returns its
 * interval profile (no caching).
 */
IntervalProfile buildProfile(const workload::Workload &workload,
                             const ProfileOptions &opts = {});

/**
 * Returns the interval profile for @p workload, loading it from the
 * cache when a matching file exists and simulating (then caching)
 * otherwise.
 */
IntervalProfile getProfile(const workload::Workload &workload,
                           const ProfileOptions &opts = {});

/**
 * getProfile() keyed by workload name. The workload model is built
 * (workload::makeWorkload) only when the profile must be simulated:
 * a cache hit reads just the file. An unknown @p name raises
 * tpcp::Error ("unknown workload") before the cache is consulted.
 */
IntervalProfile getProfileByName(const std::string &name,
                                 const ProfileOptions &opts = {});

/** The cache file path that would be used for these options. */
std::string profileCachePath(const std::string &workload_name,
                             const ProfileOptions &opts);

/** Process-wide cache effectiveness counters (all monotonic). */
struct ProfileCacheStats
{
    /** Profiles served from a valid cache file. */
    std::uint64_t hits = 0;
    /** Timing simulations actually run. */
    std::uint64_t builds = 0;
    /** Cache files rejected (corrupt or mismatched options). */
    std::uint64_t rejects = 0;
};

/** Snapshot of the process-wide cache counters (thread-safe). */
ProfileCacheStats profileCacheStats();

/** Resets the cache counters to zero (for tests). */
void resetProfileCacheStats();

} // namespace tpcp::trace

#endif // TPCP_TRACE_PROFILE_CACHE_HH
