/**
 * @file
 * The dynamic phase classifier: compresses each interval's
 * accumulator snapshot into a signature and matches it against the
 * past-signature table, implementing the paper's classification
 * algorithm (section 4) including the transition phase (4.4),
 * best-match selection (4.1) and adaptive per-phase similarity
 * thresholds (4.6).
 *
 * A classifier owns only its past-signature table. The accumulators
 * (phase::AccumulatorTable) live with whoever observes the branch
 * stream: the interval profiler, a serve producer or a test.
 */

#ifndef TPCP_PHASE_CLASSIFIER_HH
#define TPCP_PHASE_CLASSIFIER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "phase/classifier_config.hh"
#include "phase/signature_table.hh"

namespace tpcp
{
class StateWriter;
class StateReader;
} // namespace tpcp

namespace tpcp::phase
{

/** Outcome of classifying one interval. */
struct ClassifyResult
{
    /** Assigned phase: transitionPhaseId or a stable ID (>= 1). */
    PhaseId phase = transitionPhaseId;
    /** A similar past signature was found. */
    bool matched = false;
    /** A new signature was inserted into the table. */
    bool inserted = false;
    /** The adaptive scheme halved the matched entry's threshold. */
    bool thresholdHalved = false;
    /** A quarantined (parity-failed) entry was repaired in place with
     * this interval's signature instead of inserting a new entry. */
    bool repaired = false;
    /** Normalized difference to the matched entry (0 when inserted). */
    double distance = 0.0;
};

/** Aggregate classification statistics. */
struct ClassifierStats
{
    std::uint64_t intervals = 0;
    std::uint64_t transitionIntervals = 0;
    std::uint64_t insertions = 0;
    std::uint64_t thresholdHalvings = 0;
    /** Signature-table entries lost to LRU replacement. */
    std::uint64_t evictions = 0;
    /** Parity-failed entries repaired in place (parityProtect). */
    std::uint64_t repairs = 0;
    /** Entries quarantined by parity checks (parityProtect). */
    std::uint64_t quarantines = 0;
    /** CPI feedback samples rejected as non-finite or negative. */
    std::uint64_t rejectedCpiSamples = 0;

    /** Fraction of intervals classified as phase transitions. */
    double
    transitionFraction() const
    {
        return intervals ? static_cast<double>(transitionIntervals) /
                               static_cast<double>(intervals)
                         : 0.0;
    }
};

/**
 * The phase classification architecture. Its one input is an
 * interval's accumulator snapshot: the raw counters, their total
 * increment and the interval's measured CPI (performance feedback
 * for the adaptive scheme; pass 0 when unused). Online use fills a
 * phase::AccumulatorTable from the branch stream and classifies its
 * counters() at each interval boundary; replay classifies the
 * snapshots stored in an interval profile.
 */
class PhaseClassifier
{
  public:
    explicit PhaseClassifier(const ClassifierConfig &config);

    /**
     * Classifies one interval from its accumulator snapshot.
     * @p raw must have numCounters entries.
     */
    ClassifyResult classifyRaw(const std::vector<std::uint32_t> &raw,
                               InstCount total, double cpi);

    /** Pointer variant of classifyRaw() for callers that decode
     * intervals out of packet buffers: @p raw points at @p n counter
     * values, which must equal numCounters. */
    ClassifyResult classifyRaw(const std::uint32_t *raw, std::size_t n,
                               InstCount total, double cpi);

    /** Number of stable phase IDs allocated so far. */
    std::uint32_t numStablePhases() const { return nextPhase - 1; }

    const ClassifierConfig &config() const { return cfg; }
    const SignatureTable &table() const { return sigTable; }
    const ClassifierStats &stats() const { return stats_; }

    /** Mutable table access for the fault injector: soft errors are
     * injected directly into live table state. */
    SignatureTable &mutableTable() { return sigTable; }

    /** Appends full classifier state to a checkpoint snapshot. */
    void saveState(StateWriter &w) const;

    /** Restores classifier state from a checkpoint snapshot. */
    void loadState(StateReader &r);

  private:
    /** Shared hot-path implementation of the classify entry points. */
    ClassifyResult classifyOne(const std::uint32_t *raw,
                               InstCount total, double cpi);

    ClassifierConfig cfg;
    SignatureTable sigTable;
    /** Reusable compressed-signature row (hot path, no allocation). */
    std::vector<std::uint8_t> scratch;
    PhaseId nextPhase = firstStablePhaseId;
    ClassifierStats stats_;
};

} // namespace tpcp::phase

#endif // TPCP_PHASE_CLASSIFIER_HH
