#include "serve/packet.hh"

#include <cstring>

#include "common/state_io.hh"

namespace tpcp::serve
{

void
encodePacket(std::vector<std::uint8_t> &out, std::uint64_t tenant,
             std::uint64_t seq, const std::uint32_t *counters,
             std::uint32_t num_counters, InstCount total, double cpi)
{
    tpcp_assert(num_counters >= 1 &&
                num_counters <= kMaxPacketCounters,
                "packet counter count out of range");
    StateWriter w;
    w.reserve(packetBytes(num_counters));
    w.u32(kPacketMagic);
    w.u32(kPacketVersion);
    w.u64(tenant);
    w.u64(seq);
    w.u32(num_counters);
    w.u32(0); // reserved
    w.u64(total);
    w.f64(cpi);
    w.raw(counters, std::size_t{num_counters} * 4);
    out = w.take();
}

void
restampPacket(std::uint8_t *frame, std::uint64_t tenant,
              std::uint64_t seq)
{
    std::memcpy(frame + 8, &tenant, 8);
    std::memcpy(frame + 16, &seq, 8);
}

bool
peekPacketTenant(const std::uint8_t *data, std::size_t size,
                 std::uint64_t &tenant)
{
    if (size < kPacketHeaderBytes)
        return false;
    StateReader r(data, size, "packet");
    if (r.u32() != kPacketMagic || r.u32() != kPacketVersion)
        return false;
    tenant = r.u64();
    return true;
}

void
decodePacket(const std::uint8_t *data, std::size_t size,
             IntervalPacket &out)
{
    StateReader r(data, size, "packet");
    r.header(kPacketMagic, kPacketVersion);
    const std::uint64_t tenant = r.u64();
    const std::uint64_t seq = r.u64();
    const std::uint32_t num_counters = r.u32();
    if (num_counters == 0 || num_counters > kMaxPacketCounters)
        tpcp_raise("packet declares implausible counter count ",
                   num_counters);
    if (r.u32() != 0)
        tpcp_raise("packet has non-zero reserved field");
    const InstCount total = r.u64();
    const double cpi = r.f64();
    if (size != packetBytes(num_counters))
        tpcp_raise("packet length ", size, " mismatches declared ",
                   "counter count ", num_counters, " (want ",
                   packetBytes(num_counters), ")");

    out.tenant = tenant;
    out.seq = seq;
    out.total = total;
    out.cpi = cpi;
    out.counters.resize(num_counters);
    r.raw(out.counters.data(), std::size_t{num_counters} * 4);
}

} // namespace tpcp::serve
