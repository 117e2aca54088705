#include "trace/trace_file.hh"

#include <cmath>

#include "common/state_io.hh"
#include "common/status.hh"

namespace tpcp::trace
{

namespace
{

/** Bytes of a record payload before its counters: f64 cpi, u64
 * insts, u64 accumTotal. */
constexpr std::size_t kScalarBytes = 8 + 8 + 8;

} // namespace

std::vector<std::uint8_t>
encodeTrace(const IntervalProfile &profile, const std::string &source)
{
    if (profile.workload().size() > kTraceMaxName)
        tpcp_raise("trace encode: workload name longer than ",
                   kTraceMaxName, " bytes");
    if (profile.coreName().size() > kTraceMaxCore)
        tpcp_raise("trace encode: core name longer than ",
                   kTraceMaxCore, " bytes");
    if (source.size() > kTraceMaxSource)
        tpcp_raise("trace encode: source note longer than ",
                   kTraceMaxSource, " bytes");
    if (profile.dims().empty() ||
        profile.dims().size() > kTraceMaxDims)
        tpcp_raise("trace encode: ", profile.dims().size(),
                   " dimension configs (format allows 1..",
                   kTraceMaxDims, ")");

    StateWriter header;
    header.str32(profile.workload());
    header.str32(profile.coreName());
    header.str32(source);
    header.u64(profile.intervalLength());
    header.u64(profile.machineHash());
    header.u32(static_cast<std::uint32_t>(profile.dims().size()));
    for (unsigned d : profile.dims()) {
        if (d == 0 || d > kTraceMaxDim)
            tpcp_raise("trace encode: dimension config ", d,
                       " outside 1..", kTraceMaxDim);
        header.u32(d);
    }
    header.u64(profile.numIntervals());

    StateWriter out;
    const std::size_t counter_bytes =
        4 * profile.countersPerInterval();
    const std::size_t payload_bytes = kScalarBytes + counter_bytes;
    out.reserve(12 + header.size() + 4 +
                profile.numIntervals() * (payload_bytes + 8));
    out.u32(kTraceMagic);
    out.u32(kTraceVersion);
    out.u32(static_cast<std::uint32_t>(header.size()));
    out.raw(header.buffer().data(), header.size());
    out.u32(crc32(header.buffer().data(), header.size()));

    for (std::size_t i = 0; i < profile.numIntervals(); ++i) {
        const IntervalRecord &rec = profile.interval(i);
        out.u32(static_cast<std::uint32_t>(payload_bytes));
        const std::size_t start = out.size();
        out.f64(rec.cpi);
        out.u64(rec.insts);
        out.u64(rec.accumTotal);
        out.raw(profile.counters(i, 0), counter_bytes);
        out.u32(crc32(out.buffer().data() + start, payload_bytes));
    }
    return out.take();
}

TraceData
parseTrace(const std::vector<std::uint8_t> &bytes,
           const std::string &what)
{
    const std::string label = "trace " + what;
    StateReader c(bytes, label);
    c.header(kTraceMagic, kTraceVersion);
    // CRC-check the header payload before interpreting any of it: a
    // bit flip in an inner length field must not steer the parse.
    StateReader h = c.sub(c.u32());
    if (c.u32() != h.crc())
        tpcp_raise(label, ": header CRC mismatch (file corrupted)");

    std::string name = h.str32(kTraceMaxName);
    std::string core = h.str32(kTraceMaxCore);
    std::string source = h.str32(kTraceMaxSource);
    std::uint64_t interval_len = h.u64();
    std::uint64_t machine_hash = h.u64();
    std::uint32_t ndims = h.u32();
    if (interval_len == 0)
        tpcp_raise(label, ": interval length is zero");
    if (ndims == 0 || ndims > kTraceMaxDims)
        tpcp_raise(label, ": dimension count ", ndims, " outside 1..",
                   kTraceMaxDims);
    std::vector<unsigned> dims(ndims);
    for (auto &d : dims) {
        std::uint32_t v = h.u32();
        if (v == 0 || v > kTraceMaxDim)
            tpcp_raise(label, ": dimension config ", v, " outside 1..",
                       kTraceMaxDim);
        d = v;
    }
    IntervalProfile profile(name.empty() ? "trace" : name,
                            core.empty() ? "trace" : core,
                            interval_len, std::move(dims));
    profile.setMachineHash(machine_hash);

    // Each record occupies at least its payload plus length and CRC
    // framing, so the bytes after the header bound the record count.
    const std::size_t counter_bytes =
        4 * profile.countersPerInterval();
    const std::size_t payload_bytes = kScalarBytes + counter_bytes;
    const std::uint64_t record_count =
        c.checkCount(h.u64(), payload_bytes + 8);
    if (!h.atEnd())
        tpcp_raise(label, ": header carries ", h.remaining(),
                   " unexpected trailing bytes");

    profile.reserve(record_count);
    for (std::uint64_t i = 0; i < record_count; ++i) {
        std::uint32_t declared = c.u32();
        if (declared != payload_bytes)
            tpcp_raise(label, ": record ", i, " declares ", declared,
                       " payload bytes, format requires ",
                       payload_bytes);
        StateReader r = c.sub(payload_bytes);
        if (c.u32() != r.crc())
            tpcp_raise(label, ": record ", i,
                       " CRC mismatch (file corrupted)");

        IntervalRecord rec;
        rec.cpi = r.f64();
        rec.insts = r.u64();
        rec.accumTotal = r.u64();
        if (!std::isfinite(rec.cpi) || rec.cpi < 0.0)
            tpcp_raise(label, ": record ", i,
                       " carries a non-finite or negative CPI");
        if (rec.insts == 0 || rec.insts > kTraceMaxInsts)
            tpcp_raise(label, ": record ", i, " instruction count ",
                       rec.insts, " outside 1..2^40");
        if (rec.accumTotal > kTraceMaxInsts)
            tpcp_raise(label, ": record ", i, " accumulator total ",
                       rec.accumTotal, " exceeds 2^40");
        r.raw(profile.append(rec), counter_bytes);
    }
    if (!c.atEnd())
        tpcp_raise(label, ": ", c.remaining(),
                   " trailing garbage bytes after the last record");

    TraceData data;
    data.profile = std::move(profile);
    data.source = std::move(source);
    return data;
}

void
writeTrace(const std::string &path, const IntervalProfile &profile,
           const std::string &source)
{
    if (!writeFileAtomic(path, encodeTrace(profile, source)))
        tpcp_raise("trace ", path, ": write failed");
}

TraceData
readTrace(const std::string &path)
{
    return parseTrace(readFile(path), path);
}

} // namespace tpcp::trace
