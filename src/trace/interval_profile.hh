/**
 * @file
 * Stored per-interval profiles: for each fixed-length interval of a
 * workload's execution, the raw accumulator vectors at several
 * dimension configurations plus the measured CPI.
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

#include "common/types.hh"

namespace tpcp
{
class StateReader;
class StateWriter;
} // namespace tpcp

namespace tpcp::trace
{

/** Profile data for one interval. */
struct IntervalRecord
{
    /** Measured cycles-per-instruction of the interval. */
    double cpi = 0.0;
    /** Instructions in the interval (== interval length). */
    InstCount insts = 0;
    /** Total increment applied to each accumulator config. */
    InstCount accumTotal = 0;
    /** Raw accumulator snapshots, one vector per dimension config
     * (indexed like IntervalProfile::dims). */
    std::vector<std::vector<std::uint32_t>> accums;
};

/** Encoded size of one record recorded at dimension configs
 * @p dims. `.tpcpprof` and `.tpcptrace` files share the record
 * layout: f64 cpi, u64 insts, u64 accumTotal, then each config's
 * u32 counters in dims order. */
std::size_t recordBytes(const std::vector<unsigned> &dims);

/** Appends @p rec in the shared record layout. */
void writeRecord(StateWriter &w, const IntervalRecord &rec);

/** Reads one record laid out for @p dims (raises tpcp::Error when
 * the reader runs out). */
IntervalRecord readRecord(StateReader &r,
                          const std::vector<unsigned> &dims);

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

    /** Index into per-interval accums for dimension config @p dim;
     * fatal when the profile was not recorded at that config. */
    std::size_t dimIndex(unsigned dim) const;

    /** Appends one interval record. */
    void push(IntervalRecord record);

    std::size_t numIntervals() const { return records.size(); }
    const IntervalRecord &interval(std::size_t i) const;
    const std::vector<IntervalRecord> &intervals() const
    {
        return records;
    }

    /** CPI of every interval, in order. */
    std::vector<double> cpis() const;

    /**
     * Serializes to a binary file, atomically: the data is written
     * to a temporary file in the same directory and renamed over
     * @p path, so readers never observe a torn file and a crashed
     * writer leaves the previous contents intact. Returns false on
     * I/O error.
     */
    bool save(const std::string &path) const;

    /** Loads from a binary file. Returns false on I/O or format
     * error — including truncation and trailing garbage — and
     * leaves the profile empty in that case. */
    bool load(const std::string &path);

  private:
    std::string workload_;
    std::string core_;
    InstCount intervalLen = 0;
    std::uint64_t machineHash_ = 0;
    std::vector<unsigned> dims_;
    std::vector<IntervalRecord> records;
};

} // namespace tpcp::trace

#endif // TPCP_TRACE_INTERVAL_PROFILE_HH
