/**
 * @file
 * Offline evaluation drivers that replay a classified phase-ID trace
 * through the predictors and produce the statistics of the paper's
 * Figures 7 (next-phase prediction), 8 (phase-change prediction) and
 * 9 (phase-length prediction).
 */

#ifndef TPCP_PRED_EVAL_HH
#define TPCP_PRED_EVAL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "pred/last_value.hh"
#include "pred/length_predictor.hh"
#include "pred/predictor_spec.hh"

namespace tpcp::pred
{

/** Figure-7 category counts over next-interval predictions. */
struct NextPhaseStats
{
    std::uint64_t total = 0;
    /** Prediction came from a confident change-table hit. */
    std::uint64_t correctTable = 0;
    std::uint64_t incorrectTable = 0;
    /** Prediction came from the last-value fallback. */
    std::uint64_t correctLvConf = 0;
    std::uint64_t correctLvUnconf = 0;
    std::uint64_t incorrectLvUnconf = 0;
    std::uint64_t incorrectLvConf = 0;
    /** Interval transitions that changed phase (for the 25% figure). */
    std::uint64_t phaseChanges = 0;

    std::uint64_t
    correct() const
    {
        return correctTable + correctLvConf + correctLvUnconf;
    }

    /** Overall accuracy over all predictions. */
    double
    accuracy() const
    {
        return total ? static_cast<double>(correct()) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Fraction of predictions that were confident (table hits are
     * confident by construction). */
    double
    confidentCoverage() const
    {
        std::uint64_t conf = correctTable + incorrectTable +
                             correctLvConf + incorrectLvConf;
        return total ? static_cast<double>(conf) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Accuracy among confident predictions only. */
    double
    confidentAccuracy() const
    {
        std::uint64_t conf = correctTable + incorrectTable +
                             correctLvConf + incorrectLvConf;
        std::uint64_t ok = correctTable + correctLvConf;
        return conf ? static_cast<double>(ok) /
                          static_cast<double>(conf)
                    : 0.0;
    }

    void merge(const NextPhaseStats &other);
};

/**
 * Replays @p trace through a composite next-phase predictor.
 *
 * @param trace  classified phase ID per interval
 * @param change the phase-change predictor, of any family
 *               (Markov/RLE tables, TAGE, perceptron); nullopt gives
 *               the pure last-value predictor
 * @param lv_cfg last-value confidence configuration
 */
NextPhaseStats evalNextPhase(const std::vector<PhaseId> &trace,
                             const std::optional<PredictorSpec> &change,
                             const LastValueConfig &lv_cfg = {});

/** Figure-8 category counts over phase-change outcomes. */
struct ChangeOutcomeStats
{
    std::uint64_t changes = 0;
    std::uint64_t confCorrect = 0;
    std::uint64_t unconfCorrect = 0;
    std::uint64_t tagMiss = 0;
    std::uint64_t unconfIncorrect = 0;
    std::uint64_t confIncorrect = 0;

    /** Fraction of changes predicted correctly and confidently. */
    double
    confidentCorrectRate() const
    {
        return changes ? static_cast<double>(confCorrect) /
                             static_cast<double>(changes)
                       : 0.0;
    }

    /** Fraction of changes predicted correctly (any confidence). */
    double
    correctRate() const
    {
        return changes
                   ? static_cast<double>(confCorrect +
                                         unconfCorrect) /
                         static_cast<double>(changes)
                   : 0.0;
    }

    void merge(const ChangeOutcomeStats &other);
};

/**
 * Replays @p trace through a phase-change predictor of any family,
 * scoring only at actual phase changes (Figure 8). Correctness uses
 * the predictor's acceptance rule (Top-4/Last-4 accept any
 * candidate).
 */
ChangeOutcomeStats evalChangeOutcome(
    const std::vector<PhaseId> &trace, const PredictorSpec &spec);

/** Perfect-Markov upper bound results (Figure 8, last columns). */
struct PerfectMarkovStats
{
    std::uint64_t changes = 0;
    std::uint64_t seenBefore = 0;

    double
    coverage() const
    {
        return changes ? static_cast<double>(seenBefore) /
                             static_cast<double>(changes)
                       : 0.0;
    }

    void merge(const PerfectMarkovStats &other);
};

/** Replays @p trace through the perfect Markov-N model. */
PerfectMarkovStats evalPerfectMarkov(const std::vector<PhaseId> &trace,
                                     unsigned order);

/** Figure-9 results: run-length class distribution and RLE-2
 * length-class misprediction rate. */
struct RunLengthStats
{
    std::uint64_t predictions = 0;
    std::uint64_t correct = 0;
    /** Number of completed runs per run-length class. */
    std::uint64_t classCounts[4] = {0, 0, 0, 0};
    std::uint64_t totalRuns = 0;

    double
    mispredictRate() const
    {
        return predictions
                   ? 1.0 - static_cast<double>(correct) /
                               static_cast<double>(predictions)
                   : 0.0;
    }

    double
    classFraction(unsigned cls) const
    {
        return totalRuns ? static_cast<double>(classCounts[cls]) /
                               static_cast<double>(totalRuns)
                         : 0.0;
    }

    void merge(const RunLengthStats &other);
};

/** Replays @p trace through the run-length-class predictor. */
RunLengthStats evalRunLength(const std::vector<PhaseId> &trace,
                             const LengthPredictorConfig &cfg = {});

} // namespace tpcp::pred

#endif // TPCP_PRED_EVAL_HH
