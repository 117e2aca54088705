#include "trace/interval_profile.hh"

#include <algorithm>

#include "common/state_io.hh"
#include "common/status.hh"
#include "trace/trace_file.hh"

namespace tpcp::trace
{

IntervalProfile::IntervalProfile(std::string workload,
                                 std::string core, InstCount interval,
                                 std::vector<unsigned> dims)
    : workload_(std::move(workload)), core_(std::move(core)),
      intervalLen(interval), dims_(std::move(dims))
{
    tpcp_assert(intervalLen > 0);
    tpcp_assert(!dims_.empty());
    for (unsigned d : dims_) {
        offsets.push_back(stride);
        stride += d;
    }
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
IntervalProfile::reserve(std::size_t n)
{
    records.reserve(n);
    counterData.reserve(n * stride);
}

std::uint32_t *
IntervalProfile::append(const IntervalRecord &record)
{
    tpcp_assert(stride > 0, "append to a profile without dimensions");
    records.push_back(record);
    counterData.resize(counterData.size() + stride);
    return counterData.data() + counterData.size() - stride;
}

void
IntervalProfile::push(const IntervalRecord &record,
                      const std::vector<std::uint32_t> &counters)
{
    tpcp_assert(counters.size() == stride,
                "record counter count mismatch");
    std::copy(counters.begin(), counters.end(), append(record));
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

bool
IntervalProfile::save(const std::string &path) const
{
    return writeFileAtomic(path, encodeTrace(*this, ""));
}

} // namespace tpcp::trace
