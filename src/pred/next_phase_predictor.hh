/**
 * @file
 * The composite next-phase predictor of Figure 7: a phase-change
 * table (Markov/RLE) whose confident hits predict the next interval's
 * phase, falling back to last-value prediction otherwise. The paper
 * only trusts confident change-table results because incorrectly
 * predicting a change is worse than missing one (section 5.1).
 */

#ifndef TPCP_PRED_NEXT_PHASE_PREDICTOR_HH
#define TPCP_PRED_NEXT_PHASE_PREDICTOR_HH

#include <memory>
#include <optional>

#include "common/types.hh"
#include "pred/change_predictor.hh"
#include "pred/last_value.hh"

namespace tpcp
{
class StateWriter;
class StateReader;
} // namespace tpcp

namespace tpcp::pred
{

/** Who produced a next-interval prediction. */
enum class PredictionSource
{
    ChangeTable, ///< a confident phase-change-table hit
    LastValue,   ///< the last-value fallback
};

/** One next-interval prediction. */
struct NextPhasePrediction
{
    PhaseId phase = invalidPhaseId;
    PredictionSource source = PredictionSource::LastValue;
    /** Last-value confidence at prediction time (fallback only). */
    bool lvConfident = false;
    /** Acceptable outcomes for multi-outcome payloads (change-table
     * predictions only; Last4/Top4 views list up to 4). */
    CandidateSet candidates;

    /** True when @p actual matches the prediction, honoring the
     * multi-outcome acceptance rule when @p accept_any is set. */
    bool
    matches(PhaseId actual, bool accept_any) const
    {
        if (accept_any && source == PredictionSource::ChangeTable)
            return candidates.contains(actual);
        return phase == actual;
    }
};

/**
 * Next-interval phase predictor: optional change table over a
 * last-value base. Works with any PhaseChangePredictor — the
 * Markov/RLE tables, TAGE or the perceptron.
 */
class NextPhasePredictor
{
  public:
    /**
     * @param change optional phase-change predictor (nullptr gives a
     *               pure last-value predictor)
     * @param lv_cfg last-value confidence configuration
     */
    explicit NextPhasePredictor(
        std::unique_ptr<PhaseChangePredictor> change = nullptr,
        const LastValueConfig &lv_cfg = {});

    /** True once at least one interval has been observed. */
    bool primed() const { return lastValue.primed(); }

    /** Predicts the phase of the next interval. */
    NextPhasePrediction predict() const;

    /**
     * Observes the next interval's phase (trains everything).
     * Returns the change-table outcome record when the observation
     * was a phase change seen by a change table, nullopt otherwise.
     */
    std::optional<ChangeOutcome> observe(PhaseId actual);

    /** The change predictor, if any. */
    const PhaseChangePredictor *changePredictor() const
    {
        return change.get();
    }

    /** Mutable change-predictor access (fault injection). */
    PhaseChangePredictor *mutableChangePredictor()
    {
        return change.get();
    }

    /** Appends predictor state to a checkpoint snapshot. */
    void saveState(StateWriter &w) const;

    /** Restores predictor state from a checkpoint snapshot. */
    void loadState(StateReader &r);

  private:
    std::unique_ptr<PhaseChangePredictor> change;
    LastValuePredictor lastValue;
};

} // namespace tpcp::pred

#endif // TPCP_PRED_NEXT_PHASE_PREDICTOR_HH
