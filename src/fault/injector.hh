/**
 * @file
 * Deterministic soft-error injection into the live phase-tracking
 * hardware model and its interval inputs.
 *
 * The injector draws from a private PCG32 stream seeded from
 * (campaign seed, workload name), so a fault campaign is reproducible
 * bit-for-bit at any --jobs count: each workload's fault sequence
 * depends only on its own stream, never on thread scheduling.
 *
 * Fault model (one Bernoulli draw per targeted structure per
 * interval):
 *  - wide SRAM arrays (accumulator counters, stored signature rows,
 *    predictor tables) take raw single-bit flips;
 *  - with mitigation on, the arrays are modelled as detect-and-contain
 *    protected: parity/ECC *detects* the error and the structure
 *    degrades gracefully (counter zeroed, signature row quarantined
 *    for repair, predictor entry invalidated to retrain) instead of
 *    silently consuming garbage;
 *  - narrow per-entry metadata (min counters, thresholds) is cheap to
 *    fully ECC-protect, so mitigation corrects those faults outright;
 *  - input-stat faults corrupt the interval's measured CPI (NaN,
 *    negative, or plausible-looking finite garbage); mitigation adds a
 *    plausibility gate that turns surviving garbage into a cleanly
 *    rejected sample.
 */

#ifndef TPCP_FAULT_INJECTOR_HH
#define TPCP_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace tpcp
{
class StateWriter;
class StateReader;
} // namespace tpcp

namespace tpcp::pred
{
class PhaseTracker;
} // namespace tpcp::pred

namespace tpcp::fault
{

/** Which hardware structure (or input path) a campaign targets. */
enum class Target
{
    AccumCounters, ///< the interval's accumulator counter snapshot
    SignatureRows, ///< stored signature bytes in the signature table
    Metadata,      ///< per-entry min counters / similarity thresholds
    ChangeTable,    ///< Markov/RLE phase-change predictor entries
    LengthTable,    ///< run-length predictor entries
    InputStats,     ///< the interval's measured CPI from the profile
    ServeCheckpoint,///< tenant checkpoint images (torn/corrupt/missing)
    ServeFrame,     ///< wire frames in the service's ingest rings
    All,            ///< every structure above
};

/** Display/CLI name of a target. */
const char *targetName(Target t);

/** Parses a target name; raises tpcp::Error on unknown names. */
Target targetByName(const std::string &name);

/** The accepted target names, in declaration order. */
const std::vector<std::string> &targetNames();

/** One fault campaign's parameters. */
struct InjectorConfig
{
    Target target = Target::All;
    /** Per-interval fault probability for each targeted structure. */
    double ratePerInterval = 0.0;
    /** Detect-and-contain protection (parity/ECC present) instead of
     * silent raw bit flips. */
    bool mitigated = false;
    /** Campaign seed, mixed with the stream name. */
    std::uint64_t seed = 0x5eedfa17;
};

/** How many faults of each kind a campaign has injected. */
struct FaultCounts
{
    std::uint64_t accumFlips = 0;
    std::uint64_t signatureFlips = 0;
    std::uint64_t metadataFaults = 0;
    std::uint64_t changeTableFaults = 0;
    std::uint64_t lengthTableFaults = 0;
    std::uint64_t inputFaults = 0;
    std::uint64_t serveCheckpointFaults = 0;
    std::uint64_t serveFrameFlips = 0;

    std::uint64_t
    total() const
    {
        return accumFlips + signatureFlips + metadataFaults +
               changeTableFaults + lengthTableFaults + inputFaults +
               serveCheckpointFaults + serveFrameFlips;
    }
};

/**
 * Injects soft errors into a PhaseTracker and its interval inputs at
 * configured per-interval rates.
 */
class Injector
{
  public:
    /** @param stream per-workload stream name (determinism under
     *                parallel fan-out). */
    Injector(const InjectorConfig &config, std::string_view stream);

    /**
     * Called once per interval *before* the tracker consumes it:
     * mutates live tracker state and this interval's inputs (@p raw
     * accumulator snapshot and measured @p cpi) per the fault model.
     */
    void beforeInterval(pred::PhaseTracker &tracker,
                        std::vector<std::uint32_t> &raw, double &cpi);

    /**
     * Serve-layer crash model: called right after a tenant's
     * checkpoint image is sealed. With ServeCheckpoint targeted, one
     * Bernoulli draw decides whether the "crash window" hit this
     * eviction; when it does, the image is torn (truncated
     * mid-payload), bit-flipped, emptied, or gone — the four shapes
     * a real interrupted write leaves behind. Returns true when the
     * image was damaged.
     */
    bool corruptCheckpoint(std::vector<std::uint8_t> &image);

    /**
     * Serve-layer transport model: called on a frame popped from an
     * ingest ring, before decoding. With ServeFrame targeted, one
     * Bernoulli draw may flip a single bit anywhere in the frame.
     * Returns true when the frame was mutated.
     */
    bool maybeCorruptFrame(std::uint8_t *frame, std::size_t size);

    const FaultCounts &counts() const { return counts_; }
    const InjectorConfig &config() const { return cfg; }

    /** Appends injector state (RNG position + counts) to a checkpoint
     * snapshot. */
    void saveState(StateWriter &w) const;

    /** Restores injector state from a checkpoint snapshot. */
    void loadState(StateReader &r);

  private:
    bool targets(Target t) const;

    InjectorConfig cfg;
    Rng rng;
    FaultCounts counts_;
};

} // namespace tpcp::fault

#endif // TPCP_FAULT_INJECTOR_HH
