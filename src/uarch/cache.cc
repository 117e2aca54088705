#include "uarch/cache.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace tpcp::uarch
{

Cache::Cache(const CacheConfig &config, std::string name)
    : config_(config), name_(std::move(name))
{
    tpcp_assert(isPowerOf2(config_.blockBytes),
                "block size must be a power of two");
    tpcp_assert(config_.assoc >= 1);
    std::uint64_t sets = config_.numSets();
    tpcp_assert(sets >= 1 && isPowerOf2(sets),
                "cache geometry must give a power-of-two set count");
    blockShift = floorLog2(config_.blockBytes);
    tagShift = blockShift + floorLog2(sets);
    tpcp_assert(tagShift >= 1,
                "a one-set cache of one-byte blocks leaves no tag bit "
                "free for the dirty flag");
    setMask = sets - 1;
    ways.resize(sets * config_.assoc);
    valid.resize(sets);
}

/** Out of line and cache-line aligned, like OooCore::consume. */
__attribute__((noinline, aligned(64))) CacheAccessResult
Cache::access(Addr addr, bool write)
{
    ++stats_.accesses;
    const std::uint64_t set = (addr >> blockShift) & setMask;
    const std::uint64_t key = (addr >> tagShift) << 1;
    const std::uint64_t dirty = write;
    std::uint64_t *base = &ways[set * config_.assoc];
    unsigned &n = valid[set];

    for (unsigned w = 0; w < n; ++w) {
        if ((base[w] & ~std::uint64_t(1)) == key) {
            const std::uint64_t word = base[w] | dirty;
            std::copy_backward(base, base + w, base + w + 1);
            base[0] = word;
            return {true, false};
        }
    }

    ++stats_.misses;
    const bool full = n == config_.assoc;
    const unsigned slot = full ? n - 1 : n++;
    const bool writeback = full && (base[slot] & 1);
    stats_.writebacks += writeback;
    std::copy_backward(base, base + slot, base + slot + 1);
    base[0] = key | dirty;
    return {false, writeback};
}

bool
Cache::probe(Addr addr) const
{
    const std::uint64_t set = (addr >> blockShift) & setMask;
    const std::uint64_t key = (addr >> tagShift) << 1;
    const std::uint64_t *base = &ways[set * config_.assoc];
    return std::any_of(base, base + valid[set], [key](std::uint64_t w) {
        return (w & ~std::uint64_t(1)) == key;
    });
}

void
Cache::reset()
{
    std::fill(valid.begin(), valid.end(), 0);
    stats_ = CacheStats{};
}

} // namespace tpcp::uarch
