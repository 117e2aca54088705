/**
 * @file
 * The complete phase-tracking hardware unit the paper proposes:
 * classifier + next-phase predictor (change table with confidence
 * over a last-value base) + phase-length predictor, behind one
 * online interface.
 *
 * This is the component an SoC/runtime integrator would instantiate:
 * at the end of each profiling interval, feed it the interval's
 * accumulator snapshot (a phase::AccumulatorTable filled from the
 * committed branches) and CPI; it returns the interval's phase ID,
 * the predicted phase of the next interval (with confidence), and
 * the predicted run-length class of the current phase.
 */

#ifndef TPCP_PRED_PHASE_TRACKER_HH
#define TPCP_PRED_PHASE_TRACKER_HH

#include <memory>
#include <optional>

#include "phase/classifier.hh"
#include "pred/change_predictor.hh"
#include "pred/length_predictor.hh"
#include "pred/next_phase_predictor.hh"
#include "pred/predictor_spec.hh"

namespace tpcp::pred
{

/** Configuration of the full unit. */
struct PhaseTrackerConfig
{
    phase::ClassifierConfig classifier =
        phase::ClassifierConfig::paperDefault();
    /** Phase-change predictor (default: the paper's RLE-2 table,
     * 32 entry 4-way, 1-bit confidence; any PredictorSpec — TAGE,
     * perceptron — plugs in here). */
    PredictorSpec changeTable =
        PredictorSpec::tableSpec(ChangePredictorConfig::rle(2));
    LastValueConfig lastValue;
    LengthPredictorConfig length;
};

/** Everything the unit reports at an interval boundary. */
struct PhaseTrackerOutput
{
    /** Classification of the interval that just ended. */
    phase::ClassifyResult classification;
    /** Predicted phase of the *next* interval. */
    NextPhasePrediction nextPhase;
    /** Predicted run-length class of the current phase's run, if a
     * prediction is standing (see runLengthClassLabel()). */
    std::optional<unsigned> currentRunLengthClass;
    /** True when this interval started a new run (phase change). */
    bool phaseChanged = false;
    /** Change-table outcome when this interval was a phase change
     * the change predictor had context for (accuracy accounting). */
    std::optional<ChangeOutcome> changeOutcome;
    /** Prediction/actual record of the run this interval completed,
     * when a run-length prediction had been standing. */
    std::optional<LengthPredRecord> completedRun;
};

/**
 * The phase tracking and prediction unit.
 */
class PhaseTracker
{
  public:
    explicit PhaseTracker(const PhaseTrackerConfig &config = {});

    /**
     * Interval boundary: classifies the interval's accumulator
     * snapshot (see PhaseClassifier::classifyRaw()), trains the
     * predictors, and reports classification + predictions.
     *
     * @param cpi the interval's measured CPI (performance feedback)
     */
    PhaseTrackerOutput onIntervalRaw(
        const std::vector<std::uint32_t> &raw, InstCount total,
        double cpi);

    /** Pointer variant of onIntervalRaw() for the streaming-service
     * hot path, which decodes intervals out of packet buffers:
     * @p raw points at @p n counter values (== numCounters). */
    PhaseTrackerOutput onIntervalRaw(const std::uint32_t *raw,
                                     std::size_t n, InstCount total,
                                     double cpi);

    const phase::PhaseClassifier &classifier() const { return classifier_; }
    const NextPhasePredictor &predictor() const
    {
        return nextPhase;
    }

    /** Mutable component access for the fault injector, which flips
     * bits in live classifier/predictor state. */
    phase::PhaseClassifier &mutableClassifier() { return classifier_; }
    NextPhasePredictor &mutablePredictor() { return nextPhase; }
    RunLengthPredictor &mutableLengthPredictor() { return lengthPred; }

    /** Intervals processed so far. */
    std::uint64_t intervals() const { return intervals_; }

    /** Appends full tracker state (classifier + all predictors) to a
     * checkpoint snapshot. */
    void saveState(StateWriter &w) const;

    /** Restores full tracker state from a checkpoint snapshot. */
    void loadState(StateReader &r);

  private:
    /** Shared post-classification half of an interval boundary. */
    PhaseTrackerOutput finishInterval(
        const phase::ClassifyResult &classification);

    phase::PhaseClassifier classifier_;
    NextPhasePredictor nextPhase;
    RunLengthPredictor lengthPred;
    PhaseId lastPhase = invalidPhaseId;
    std::uint64_t intervals_ = 0;
};

} // namespace tpcp::pred

#endif // TPCP_PRED_PHASE_TRACKER_HH
