#include "trace/trace_workload.hh"

#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/state_io.hh"
#include "common/status.hh"

namespace tpcp::trace
{

namespace
{

struct CacheEntry
{
    std::uint64_t contentHash = 0;
    IntervalProfile profile;
};

struct TraceCache
{
    std::mutex mutex;
    std::unordered_map<std::string, CacheEntry> entries;
    TraceCacheStats stats;
};

TraceCache &
cache()
{
    static TraceCache c;
    return c;
}

} // namespace

IntervalProfile
getTraceProfile(const std::string &path)
{
    // Hash the current bytes first: the content hash, not the path,
    // decides whether the memoized parse is still valid.
    std::vector<std::uint8_t> bytes = readFile(path);
    std::uint64_t hash = fnv1a64(bytes.data(), bytes.size());

    TraceCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    auto it = c.entries.find(path);
    if (it != c.entries.end()) {
        if (it->second.contentHash == hash) {
            ++c.stats.hits;
            return it->second.profile;
        }
        ++c.stats.invalidations;
    }
    // Validation completes before the cache is touched: a corrupt
    // rewrite of a previously good file raises here and leaves the
    // old entry intact.
    TraceData data = parseTrace(bytes, path);
    ++c.stats.parses;
    CacheEntry &entry = c.entries[path];
    entry.contentHash = hash;
    entry.profile = std::move(data.profile);
    return entry.profile;
}

TraceCacheStats
traceCacheStats()
{
    TraceCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    return c.stats;
}

void
resetTraceCache()
{
    TraceCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.clear();
    c.stats = TraceCacheStats{};
}

std::vector<std::pair<std::string, IntervalProfile>>
loadTraceProfiles(const std::string &csv)
{
    std::vector<std::pair<std::string, IntervalProfile>> out;
    std::stringstream ss(csv);
    std::string path;
    while (std::getline(ss, path, ',')) {
        if (path.empty())
            continue;
        IntervalProfile profile = getTraceProfile(path);
        std::string name = profile.workload();
        out.emplace_back(std::move(name), std::move(profile));
    }
    return out;
}

} // namespace tpcp::trace
