#include "trace/profile_cache.hh"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "common/status.hh"
#include "trace/interval_profiler.hh"
#include "trace/trace_file.hh"
#include "uarch/simulator.hh"

namespace tpcp::trace
{

namespace
{

std::string
sanitize(const std::string &name)
{
    std::string out;
    for (char c : name)
        out.push_back((std::isalnum(static_cast<unsigned char>(c)))
                          ? c
                          : '_');
    return out;
}

std::string
cacheDirOf(const ProfileOptions &opts)
{
    if (!opts.cacheDir.empty())
        return opts.cacheDir;
    // An exported but empty variable means unset, not the working
    // directory.
    const char *env = std::getenv("TPCP_PROFILE_DIR");
    if (env && *env)
        return env;
    return "tpcp_profiles";
}

bool
profileMatches(const IntervalProfile &p, const std::string &name,
               const ProfileOptions &opts)
{
    return p.workload() == name &&
           p.coreName() == opts.coreName &&
           p.intervalLength() == opts.intervalLen &&
           p.machineHash() == uarch::configHash(opts.machine) &&
           p.dims() == opts.dims && p.numIntervals() > 0;
}

/**
 * One mutex per cache-file path, so concurrent getProfile() calls
 * for the same profile simulate it once while distinct profiles
 * build in parallel. Entries are never erased: the map is bounded
 * by the number of distinct profiles a process touches.
 */
std::mutex &
pathMutex(const std::string &path)
{
    static std::mutex registry_mutex;
    static std::unordered_map<std::string, std::mutex> registry;
    std::lock_guard<std::mutex> lock(registry_mutex);
    return registry[path];
}

std::atomic<std::uint64_t> statHits{0};
std::atomic<std::uint64_t> statBuilds{0};
std::atomic<std::uint64_t> statRejects{0};

} // namespace

IntervalProfile
buildProfile(const workload::Workload &workload,
             const ProfileOptions &opts)
{
    statBuilds.fetch_add(1, std::memory_order_relaxed);
    std::unique_ptr<uarch::TimingCore> core =
        uarch::makeCore(opts.coreName, opts.machine);

    auto schedule = workload.makeSchedule();
    uarch::Simulator sim(workload.program, *schedule, *core,
                         workload.simSeed());
    IntervalProfiler profiler(*core, workload.name, opts.intervalLen,
                              opts.dims);
    sim.addSink(&profiler);
    sim.run();
    IntervalProfile profile = profiler.takeProfile();
    profile.setMachineHash(uarch::configHash(opts.machine));
    return profile;
}

std::string
profileCachePath(const std::string &workload_name,
                 const ProfileOptions &opts)
{
    std::ostringstream oss;
    oss << sanitize(workload_name) << "_" << opts.coreName << "_i"
        << opts.intervalLen << "_d";
    for (std::size_t i = 0; i < opts.dims.size(); ++i)
        oss << (i ? "-" : "") << opts.dims[i];
    // Non-Table-1 machines get a distinguishing hash tag.
    std::uint64_t h = uarch::configHash(opts.machine);
    if (h != uarch::configHash(uarch::MachineConfig::table1()))
        oss << "_m" << std::hex << (h & 0xffffffff) << std::dec;
    oss << ".tpcptrace";
    return (std::filesystem::path(cacheDirOf(opts)) / oss.str())
        .string();
}

namespace
{

/**
 * The cache path shared by getProfile() and getProfileByName(): loads
 * @p name's profile when a matching cache file exists and otherwise
 * runs @p build (then caches its result). A hit reads only the file,
 * so callers pass the workload model lazily.
 */
IntervalProfile
loadOrBuild(const std::string &name, const ProfileOptions &opts,
            const std::function<IntervalProfile()> &build)
{
    if (!opts.useCache)
        return build();

    std::string path = profileCachePath(name, opts);
    // Serialize load-or-build per path: a stampede of workers asking
    // for the same profile simulates it once and the rest load the
    // freshly written file.
    std::lock_guard<std::mutex> lock(pathMutex(path));

    const bool existed = std::filesystem::exists(path);
    if (existed) {
        try {
            TraceData cached = parseTrace(readFile(path), path);
            if (profileMatches(cached.profile, name, opts)) {
                statHits.fetch_add(1, std::memory_order_relaxed);
                return std::move(cached.profile);
            }
        } catch (const Error &) {
            // Rejected below, like a mismatched file.
        }
    }
    // An unreadable (corrupt/truncated/old-version) file and a
    // mismatched one are both rejections; a missing file is a plain
    // cold build.
    if (existed)
        statRejects.fetch_add(1, std::memory_order_relaxed);
    if (opts.requireCache)
        tpcp_raise(existed
                       ? "cached profile is corrupt or mismatched: "
                       : "no cached profile: ",
                   path, " (workload '", name,
                   "', --require-cache forbids re-simulation)");

    IntervalProfile fresh = build();
    std::error_code ec;
    std::filesystem::create_directories(cacheDirOf(opts), ec);
    if (!fresh.save(path))
        tpcp_warn("could not write profile cache file ", path);
    return fresh;
}

} // namespace

IntervalProfile
getProfile(const workload::Workload &workload,
           const ProfileOptions &opts)
{
    return loadOrBuild(workload.name, opts,
                       [&] { return buildProfile(workload, opts); });
}

IntervalProfile
getProfileByName(const std::string &name, const ProfileOptions &opts)
{
    // Checked before the cache is read: a stray file at an unknown
    // name's sanitized path must not turn into a hit.
    if (!workload::isWorkloadName(name))
        tpcp_raise("unknown workload '", name,
                   "'; see workloadNames()");
    return loadOrBuild(name, opts, [&] {
        return buildProfile(workload::makeWorkload(name), opts);
    });
}

ProfileCacheStats
profileCacheStats()
{
    ProfileCacheStats s;
    s.hits = statHits.load(std::memory_order_relaxed);
    s.builds = statBuilds.load(std::memory_order_relaxed);
    s.rejects = statRejects.load(std::memory_order_relaxed);
    return s;
}

void
resetProfileCacheStats()
{
    statHits.store(0, std::memory_order_relaxed);
    statBuilds.store(0, std::memory_order_relaxed);
    statRejects.store(0, std::memory_order_relaxed);
}

} // namespace tpcp::trace
