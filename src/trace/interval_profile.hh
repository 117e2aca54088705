/**
 * @file
 * Stored per-interval profiles: for each fixed-length interval of a
 * workload's execution, the raw accumulator vectors at several
 * dimension configurations plus the measured CPI. The counters of
 * all intervals sit in one contiguous array, interval after interval,
 * each interval's configs in dims() order: the order a `.tpcptrace`
 * record (trace/trace_file.hh, also the profile cache's format)
 * stores them in.
 *
 * Profiles decouple simulation from classification: the timing
 * simulation runs once per workload, and every classifier/predictor
 * experiment replays the stored accumulator snapshots (exactly the
 * state the hardware classifier would see) in microseconds.
 */

#ifndef TPCP_TRACE_INTERVAL_PROFILE_HH
#define TPCP_TRACE_INTERVAL_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace tpcp::trace
{

/** Scalar profile data for one interval; its accumulator snapshots
 * live in the profile's counter array (IntervalProfile::counters). */
struct IntervalRecord
{
    /** Measured cycles-per-instruction of the interval. */
    double cpi = 0.0;
    /** Instructions in the interval (== interval length). */
    InstCount insts = 0;
    /** Total increment applied to each accumulator config. */
    InstCount accumTotal = 0;
};

/** A complete per-interval profile of one workload run. */
class IntervalProfile
{
  public:
    IntervalProfile() = default;

    /**
     * @param workload   workload name
     * @param core       timing-core name used ("ooo", "simple")
     * @param interval   instructions per interval
     * @param dims       accumulator dimension configs recorded
     */
    IntervalProfile(std::string workload, std::string core,
                    InstCount interval, std::vector<unsigned> dims);

    const std::string &workload() const { return workload_; }
    const std::string &coreName() const { return core_; }
    InstCount intervalLength() const { return intervalLen; }
    const std::vector<unsigned> &dims() const { return dims_; }

    /** Hash of the simulated machine (uarch::configHash); stored in
     * the file header so a profile recorded on one machine
     * configuration is never reused for another. */
    std::uint64_t machineHash() const { return machineHash_; }
    void setMachineHash(std::uint64_t h) { machineHash_ = h; }

    /** Index of dimension config @p dim for counters(); raises
     * tpcp::Error when the profile was not recorded at that config. */
    std::size_t dimIndex(unsigned dim) const;

    /** Counters one interval holds: the sum of dims(). */
    std::size_t countersPerInterval() const { return stride; }

    /** Room for @p n intervals without reallocating. */
    void reserve(std::size_t n);

    /**
     * Appends one interval and returns its countersPerInterval()
     * counters, zeroed, for the caller to fill: each dimension
     * config's snapshot in dims() order. The pointer is valid until
     * the next append.
     */
    std::uint32_t *append(const IntervalRecord &record);

    /** append(), copying the counters from @p counters, which holds
     * exactly countersPerInterval() values. */
    void push(const IntervalRecord &record,
              const std::vector<std::uint32_t> &counters);

    std::size_t numIntervals() const { return records.size(); }
    const IntervalRecord &interval(std::size_t i) const;
    const std::vector<IntervalRecord> &intervals() const
    {
        return records;
    }

    /** Interval @p i's snapshot at dimension config index
     * @p dim_idx (see dimIndex()): dims()[dim_idx] counters. */
    const std::uint32_t *
    counters(std::size_t i, std::size_t dim_idx) const
    {
        tpcp_assert(i < records.size() && dim_idx < offsets.size());
        return counterData.data() + i * stride + offsets[dim_idx];
    }

    /** CPI of every interval, in order. */
    std::vector<double> cpis() const;

    /**
     * Writes the profile to @p path as a `.tpcptrace` file with an
     * empty source note (encodeTrace), atomically: the bytes go to a
     * temporary file in the same directory that is renamed over
     * @p path, so readers never observe a torn file and a crashed
     * writer leaves the previous contents intact. Returns false on
     * I/O error; readTrace() reads the file back.
     */
    bool save(const std::string &path) const;

  private:
    std::string workload_;
    std::string core_;
    InstCount intervalLen = 0;
    std::uint64_t machineHash_ = 0;
    std::vector<unsigned> dims_;
    /** Start of each dimension config's block within an interval. */
    std::vector<std::size_t> offsets;
    std::size_t stride = 0;
    std::vector<IntervalRecord> records;
    /** Every interval's counters, stride values per interval. */
    std::vector<std::uint32_t> counterData;
};

} // namespace tpcp::trace

#endif // TPCP_TRACE_INTERVAL_PROFILE_HH
