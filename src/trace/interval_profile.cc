#include "trace/interval_profile.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "common/status.hh"

namespace tpcp::trace
{

namespace
{

constexpr std::uint32_t profileMagic = 0x54504350; // "TPCP"
// Version 2 added the machine-configuration hash to the header;
// version-1 files are rejected (and transparently re-simulated by
// the profile cache).
constexpr std::uint32_t profileVersion = 2;

/** Plausibility bounds checked before any allocation is sized by
 * the file. */
constexpr std::uint32_t kMaxString = 1u << 20;
constexpr std::uint32_t kMaxDims = 64;
constexpr std::uint32_t kMaxDim = 4096;

} // namespace

IntervalProfile::IntervalProfile(std::string workload,
                                 std::string core, InstCount interval,
                                 std::vector<unsigned> dims)
    : workload_(std::move(workload)), core_(std::move(core)),
      intervalLen(interval), dims_(std::move(dims))
{
    tpcp_assert(intervalLen > 0);
    tpcp_assert(!dims_.empty());
}

std::size_t
IntervalProfile::dimIndex(unsigned dim) const
{
    auto it = std::find(dims_.begin(), dims_.end(), dim);
    if (it == dims_.end())
        tpcp_raise("profile for ", workload_,
                   " was not recorded at dimension ", dim);
    return static_cast<std::size_t>(it - dims_.begin());
}

void
IntervalProfile::push(IntervalRecord record)
{
    tpcp_assert(record.accums.size() == dims_.size(),
                "record dimension-config count mismatch");
    for (std::size_t d = 0; d < dims_.size(); ++d) {
        tpcp_assert(record.accums[d].size() == dims_[d],
                    "record accumulator width mismatch");
    }
    records.push_back(std::move(record));
}

const IntervalRecord &
IntervalProfile::interval(std::size_t i) const
{
    tpcp_assert(i < records.size());
    return records[i];
}

std::vector<double>
IntervalProfile::cpis() const
{
    std::vector<double> out;
    out.reserve(records.size());
    for (const auto &r : records)
        out.push_back(r.cpi);
    return out;
}

std::size_t
recordBytes(const std::vector<unsigned> &dims)
{
    std::size_t n = 8 + 8 + 8; // cpi, insts, accumTotal
    for (unsigned d : dims)
        n += 4ull * d;
    return n;
}

void
writeRecord(StateWriter &w, const IntervalRecord &rec)
{
    w.f64(rec.cpi);
    w.u64(rec.insts);
    w.u64(rec.accumTotal);
    for (const auto &vec : rec.accums)
        w.raw(vec.data(), vec.size() * sizeof(std::uint32_t));
}

IntervalRecord
readRecord(StateReader &r, const std::vector<unsigned> &dims)
{
    IntervalRecord rec;
    rec.cpi = r.f64();
    rec.insts = r.u64();
    rec.accumTotal = r.u64();
    rec.accums.reserve(dims.size());
    for (unsigned d : dims) {
        std::vector<std::uint32_t> vec(d);
        r.raw(vec.data(), d * sizeof(std::uint32_t));
        rec.accums.push_back(std::move(vec));
    }
    return rec;
}

bool
IntervalProfile::save(const std::string &path) const
{
    StateWriter w;
    w.reserve(64 + workload_.size() + core_.size() + 4 * dims_.size() +
              records.size() * recordBytes(dims_));
    w.u32(profileMagic);
    w.u32(profileVersion);
    w.str32(workload_);
    w.str32(core_);
    w.u64(intervalLen);
    w.u64(machineHash_);
    w.u32(static_cast<std::uint32_t>(dims_.size()));
    for (unsigned d : dims_)
        w.u32(d);
    w.u64(records.size());
    for (const auto &rec : records)
        writeRecord(w, rec);
    return writeFileAtomic(path, w.buffer());
}

bool
IntervalProfile::load(const std::string &path)
{
    *this = IntervalProfile{};
    IntervalProfile p;
    try {
        const std::vector<std::uint8_t> bytes = readFile(path);
        StateReader r(bytes, "profile");
        r.header(profileMagic, profileVersion);
        p.workload_ = r.str32(kMaxString);
        p.core_ = r.str32(kMaxString);
        p.intervalLen = r.u64();
        p.machineHash_ = r.u64();
        const std::uint32_t ndims = r.u32();
        if (ndims == 0 || ndims > kMaxDims)
            return false;
        p.dims_.resize(ndims);
        for (auto &d : p.dims_) {
            d = r.u32();
            if (d == 0 || d > kMaxDim)
                return false;
        }
        const std::uint64_t n = r.count(recordBytes(p.dims_));
        p.records.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            p.records.push_back(readRecord(r, p.dims_));
        // A well-formed file ends exactly here; trailing bytes mean
        // the file was corrupted (e.g. two writers appending in
        // place).
        if (!r.atEnd())
            return false;
    } catch (const Error &) {
        return false;
    }
    *this = std::move(p);
    return true;
}

} // namespace tpcp::trace
