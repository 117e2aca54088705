/**
 * @file
 * The streaming service's wire format: one frame per profiling
 * interval, carrying the raw accumulator snapshot the hardware
 * classifier would see plus the interval's measured CPI.
 *
 * Framing is versioned and validated (magic, version, tenant id,
 * per-tenant sequence number, counter count, declared length).
 * decodePacket() treats the buffer as untrusted input: truncation, a
 * forged counter count, a wrong magic or version — anything
 * structurally inconsistent — raises a recoverable tpcp::Error and
 * never reads out of bounds. The service catches per-packet errors,
 * counts them, and keeps running: a malformed producer can waste its
 * own stream but cannot crash the service or corrupt another
 * tenant's.
 *
 * Layout (little-endian, packed by field writes — no struct
 * aliasing):
 *   u32 magic        'TPKT'
 *   u32 version      kPacketVersion
 *   u64 tenant       tenant id
 *   u64 seq          per-tenant sequence number (0-based)
 *   u32 numCounters  accumulator dimensionality
 *   u32 reserved     must be zero
 *   u64 total        total accumulator increment of the interval
 *   u64 cpiBits      the interval's CPI (IEEE-754 bits)
 *   u32 counters[numCounters]
 */

#ifndef TPCP_SERVE_PACKET_HH
#define TPCP_SERVE_PACKET_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace tpcp::serve
{

inline constexpr std::uint32_t kPacketMagic = 0x544B5054; // "TPKT"
inline constexpr std::uint32_t kPacketVersion = 1;
/** Header bytes ahead of the counter payload. */
inline constexpr std::size_t kPacketHeaderBytes = 48;
/** Upper bound on counters per packet; anything above is a forged
 * or corrupt count, rejected before any allocation is sized by it. */
inline constexpr std::uint32_t kMaxPacketCounters = 4096;

/** One decoded interval packet. Counter storage is owned by the
 * packet and reused across decodes (hot path allocates only until
 * the vector reaches steady-state capacity). */
struct IntervalPacket
{
    std::uint64_t tenant = 0;
    std::uint64_t seq = 0;
    InstCount total = 0;
    double cpi = 0.0;
    std::vector<std::uint32_t> counters;
};

/** Exact encoded size of a packet with @p num_counters counters. */
inline std::size_t
packetBytes(std::uint32_t num_counters)
{
    return kPacketHeaderBytes +
           std::size_t{num_counters} * sizeof(std::uint32_t);
}

/**
 * Replaces the contents of @p out with the encoded frame.
 */
void encodePacket(std::vector<std::uint8_t> &out,
                  std::uint64_t tenant, std::uint64_t seq,
                  const std::uint32_t *counters,
                  std::uint32_t num_counters, InstCount total,
                  double cpi);

/**
 * Patches only the tenant and sequence fields of an already-encoded
 * frame — producers replaying one interval stream to many tenants
 * re-stamp a template frame instead of re-encoding the payload.
 */
void restampPacket(std::uint8_t *frame, std::uint64_t tenant,
                   std::uint64_t seq);

/**
 * Decodes and validates one frame. Raises tpcp::Error when the
 * frame is truncated, carries the wrong magic or version, declares
 * an implausible or mismatched counter count, or has trailing
 * bytes. On success @p out holds the packet.
 */
void decodePacket(const std::uint8_t *data, std::size_t size,
                  IntervalPacket &out);

/**
 * Cheap header peek for the flow scheduler: validates only the
 * magic, version and minimum length, and extracts the tenant id
 * without touching the payload. Returns false (leaving @p tenant
 * untouched) for frames that cannot be attributed to a tenant; the
 * frame still goes through full decodePacket() validation before
 * any tracker sees it.
 */
bool peekPacketTenant(const std::uint8_t *data, std::size_t size,
                      std::uint64_t &tenant);

} // namespace tpcp::serve

#endif // TPCP_SERVE_PACKET_HH
