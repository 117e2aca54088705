#include "uarch/tlb.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace tpcp::uarch
{

Tlb::Tlb(const TlbConfig &config)
    : config_(config)
{
    tpcp_assert(isPowerOf2(config_.pageBytes));
    tpcp_assert(config_.assoc >= 1);
    tpcp_assert(config_.entries % config_.assoc == 0);
    pageShift = floorLog2(config_.pageBytes);
    unsigned sets = config_.entries / config_.assoc;
    tpcp_assert(isPowerOf2(sets));
    setMask = sets - 1;
    vpns.resize(config_.entries);
    valid.resize(sets);
}

bool
Tlb::access(Addr addr)
{
    ++stats_.accesses;
    const std::uint64_t vpn = addr >> pageShift;
    const std::uint64_t set = vpn & setMask;
    std::uint64_t *base = &vpns[set * config_.assoc];
    unsigned &n = valid[set];

    for (unsigned w = 0; w < n; ++w) {
        if (base[w] == vpn) {
            std::copy_backward(base, base + w, base + w + 1);
            base[0] = vpn;
            return true;
        }
    }

    ++stats_.misses;
    const unsigned slot = n == config_.assoc ? n - 1 : n++;
    std::copy_backward(base, base + slot, base + slot + 1);
    base[0] = vpn;
    return false;
}

void
Tlb::reset()
{
    std::fill(valid.begin(), valid.end(), 0);
    stats_ = TlbStats{};
}

} // namespace tpcp::uarch
