/**
 * @file
 * The resilience harness: replays a stored interval profile through
 * two PhaseTracker instances — one fault-free, one under a seeded
 * fault campaign — and measures how far the faulty unit drifts:
 * phase-ID stream agreement, next-phase / phase-change / run-length
 * prediction accuracy deltas, and (optionally) the impact on the
 * adapt layer's oracle fraction.
 *
 * The faulty run supports checkpoint/resume: the full tracker +
 * injector + harness-aggregate state snapshots into a checksummed
 * state file (common/state_io envelope), and a resumed run finishes
 * with a byte-identical report — the CI harness kills a run at
 * interval k, resumes it, and diffs the reports.
 *
 * Every report is a pure function of (profile, options): campaigns
 * fan out with analysis::runIndexed and stay bit-identical at any
 * --jobs count.
 */

#ifndef TPCP_FAULT_RESILIENCE_HH
#define TPCP_FAULT_RESILIENCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "pred/predictor_spec.hh"
#include "trace/interval_profile.hh"

namespace tpcp::fault
{

/** Options of one resilience measurement. */
struct ResilienceOptions
{
    InjectorConfig injector;
    /** Phase-change predictor under fault (the paper's RLE-2 by
     * default; "tage"/"perceptron" exercise the new families). */
    pred::PredictorSpec changePredictor;
    /** Accumulator dimension config replayed from the profile. */
    unsigned dims = 16;
    /** Scrub period of the mitigated classifier, in intervals. */
    unsigned scrubEvery = 1;

    /** Also measure the adapt layer's oracle fraction on the base
     * and faulty phase streams (expensive: simulates the config
     * lattice; prefer --core simple). */
    bool withAdapt = false;
    std::string adaptLattice = "small";

    /** Checkpoint file ("" = no checkpointing). */
    std::string checkpointPath;
    /** Save the checkpoint and stop after this many faulty intervals
     * (0 = never; the report is then partial). */
    std::uint64_t checkpointAt = 0;
    /** Resume the faulty run from checkpointPath. */
    bool resume = false;
};

/** Everything one resilience measurement produced. */
struct ResilienceReport
{
    std::string workload;
    std::string target;
    double rate = 0.0;
    bool mitigated = false;

    /** Intervals the faulty run processed (== profile length unless
     * the run stopped at a checkpoint). */
    std::uint64_t intervals = 0;
    FaultCounts faults;

    /** Intervals whose faulty phase ID equals the fault-free one. */
    std::uint64_t agreeingIntervals = 0;

    // Prediction accuracy, fault-free baseline vs faulty run.
    double nextPhaseAccBase = 0.0;
    double nextPhaseAccFaulty = 0.0;
    double changeAccBase = 0.0;
    double changeAccFaulty = 0.0;
    double lengthAccBase = 0.0;
    double lengthAccFaulty = 0.0;

    // Mitigation activity observed in the faulty classifier.
    std::uint64_t repairs = 0;
    std::uint64_t quarantines = 0;
    /** Signature-row bit flips corrected in place by the per-row
     * ECC (scrub or read check). */
    std::uint64_t eccCorrections = 0;
    std::uint64_t rejectedCpiSamples = 0;

    // Adapt-layer impact (withAdapt only).
    bool adaptMeasured = false;
    double adaptOracleFracBase = 0.0;
    double adaptOracleFracFaulty = 0.0;

    /** The run stopped early after writing a checkpoint. */
    bool checkpointed = false;

    /** Phase-ID stream agreement with the fault-free run. */
    double
    agreement() const
    {
        return intervals ? static_cast<double>(agreeingIntervals) /
                               static_cast<double>(intervals)
                         : 1.0;
    }

    double nextPhaseDelta() const
    {
        return nextPhaseAccBase - nextPhaseAccFaulty;
    }
    double changeDelta() const
    {
        return changeAccBase - changeAccFaulty;
    }
    double lengthDelta() const
    {
        return lengthAccBase - lengthAccFaulty;
    }
    double adaptOracleDelta() const
    {
        return adaptOracleFracBase - adaptOracleFracFaulty;
    }
};

/**
 * Runs one resilience measurement of @p profile under @p opts.
 * Raises tpcp::Error on invalid options or a bad checkpoint file.
 */
ResilienceReport runResilience(const trace::IntervalProfile &profile,
                               const ResilienceOptions &opts);

/** One report as a JSON object (stable key order). */
std::string toJson(const ResilienceReport &report);

/** A report list as a JSON array, one object per line. */
std::string toJson(const std::vector<ResilienceReport> &reports);

} // namespace tpcp::fault

#endif // TPCP_FAULT_RESILIENCE_HH
