/**
 * @file
 * The versioned `.tpcptrace` format: recorded per-interval
 * branch-counter vectors plus CPI. It is the one interval file
 * format: the bridge between real profiling tools and the
 * classifier/predictor stack, and the profile cache's file
 * (trace/profile_cache.hh), written by IntervalProfile::save. A trace
 * file carries the same per-interval records an IntervalProfile
 * holds, so an ingested trace is a first-class workload everywhere a
 * synthetic model is accepted.
 *
 * Layout (little-endian, length-prefixed records, every byte covered
 * by a structural check or a CRC):
 *
 *   u32 magic      'TPTR'
 *   u32 version    kTraceVersion
 *   u32 headerLen  byte length of the header payload below
 *   header payload (exactly headerLen bytes):
 *     u32 nameLen,   bytes   workload/display name   (<= 256)
 *     u32 coreLen,   bytes   recording core name     (<= 64)
 *     u32 sourceLen, bytes   free-form provenance    (<= 1024)
 *     u64 intervalLen        instructions per interval (> 0)
 *     u64 machineHash        uarch::configHash (0 = external tool)
 *     u32 ndims              dimension configs       (1 .. 64)
 *     u32 dims[ndims]        counters per config     (1 .. 4096)
 *     u64 recordCount        records that follow
 *   u32 headerCrc  CRC-32 of the header payload
 *   recordCount records, each:
 *     u32 payloadLen         must equal 24 + 4 * sum(dims)
 *     payload:
 *       f64 cpi              finite, >= 0
 *       u64 insts            1 .. 2^40
 *       u64 accumTotal       0 .. 2^40
 *       u32 counters[d]      one block per dim config, dims order
 *     u32 payloadCrc         CRC-32 of the payload
 *   (end of file exactly here; trailing bytes are rejected)
 *
 * The reader treats the file as untrusted input, like the TPKT
 * packet decoder: magic/version/length mismatches, forged record
 * counts or payload lengths, truncation, bit flips (CRC) and
 * trailing garbage all raise a recoverable tpcp::Error before any
 * caller-visible state is touched — a parse either yields a complete
 * TraceData or nothing.
 */

#ifndef TPCP_TRACE_TRACE_FILE_HH
#define TPCP_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "trace/interval_profile.hh"

namespace tpcp::trace
{

inline constexpr std::uint32_t kTraceMagic = 0x52545054; // "TPTR"
inline constexpr std::uint32_t kTraceVersion = 1;
/** Bounds validated before any allocation is sized by the input. */
inline constexpr std::uint32_t kTraceMaxName = 256;
inline constexpr std::uint32_t kTraceMaxCore = 64;
inline constexpr std::uint32_t kTraceMaxSource = 1024;
inline constexpr std::uint32_t kTraceMaxDims = 64;
inline constexpr std::uint32_t kTraceMaxDim = 4096;
/** Generous plausibility caps on per-record scalars. */
inline constexpr std::uint64_t kTraceMaxInsts = 1ull << 40;

/** A fully validated, ingested trace. */
struct TraceData
{
    /** The records, as the profile every experiment replays. The
     * profile's workload name, core name, interval length, dims and
     * machine hash come from the trace header. */
    IntervalProfile profile;
    /** Free-form provenance note from the header. */
    std::string source;
};

/** FNV-1a 64-bit hash of a byte range (common/bitops.hh). */
using tpcp::fnv1a64;

/**
 * Serializes @p profile (plus the provenance note) into the trace
 * byte format. Deterministic: the same profile and source always
 * produce the same bytes, so re-exporting an ingested trace is
 * byte-identical (see parseTrace).
 */
std::vector<std::uint8_t> encodeTrace(const IntervalProfile &profile,
                                      const std::string &source);

/**
 * Parses and validates a complete trace image. @p what names the
 * input in error messages (a path, or "<memory>" in tests). Raises
 * tpcp::Error on any structural or content problem; on success every
 * record has been CRC-checked and bounds-checked.
 */
TraceData parseTrace(const std::vector<std::uint8_t> &bytes,
                     const std::string &what);

/**
 * Writes @p profile to @p path as a trace file, atomically (temp
 * file + rename, like every other writer in the repository). Raises
 * tpcp::Error on I/O failure.
 */
void writeTrace(const std::string &path,
                const IntervalProfile &profile,
                const std::string &source);

/** Reads and validates the trace file at @p path (raises
 * tpcp::Error when missing or invalid). */
TraceData readTrace(const std::string &path);

} // namespace tpcp::trace

#endif // TPCP_TRACE_TRACE_FILE_HH
