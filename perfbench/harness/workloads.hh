/**
 * @file
 * The three perfbench workloads. Each measures one path a user waits
 * on, checks its outputs, and fills a RunResult: end-to-end metrics
 * in an untraced run, per-layer metrics in a traced one.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "tracer.hh"

namespace perfbench
{

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Private scratch directory of this run (removed at exit). */
    std::string workDir;
    /** Where the reference digests live (perfbench/refs). */
    std::string refsDir;
    /** The benchmark-owned warm profile cache. */
    std::string profileDir;
    /** Regenerate the reference files instead of checking them. */
    bool writeRefs = false;
    /** Spans of a traced run go here. */
    std::vector<Span> spans;
};

/** Whole-model profiles simulated into an empty cache. */
RunResult runColdProfile(RunConfig &cfg);

/** The figure-suite sweep over warm cached profiles. */
RunResult runWarmReplay(RunConfig &cfg);

/** Open-loop streaming service (serve-steady). */
RunResult runServe(RunConfig &cfg);

/** Fills the warm profile cache (untimed prep step). */
int prepWarmCache(const std::string &profile_dir, unsigned jobs);

/** The set-up time, and the run's peak RSS. */
void addSetupAndRss(RunResult &r, double setup_s);

/** Reads whitespace-separated reference lines, skipping '#'
 * comments; a missing file yields no lines. */
std::vector<std::vector<std::string>>
readRefLines(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
