/**
 * @file
 * Phase-length prediction (paper section 6.2): when a new phase run
 * starts, predict which run-length class (1-15, 16-127, 128-1023,
 * >= 1024 intervals) it will fall into. Uses the RLE-2 indexed table
 * of the change predictors with a per-entry hysteresis counter: an
 * entry only adopts a new class after seeing it twice in a row,
 * filtering run-length noise in complex programs (e.g. gcc).
 */

#ifndef TPCP_PRED_LENGTH_PREDICTOR_HH
#define TPCP_PRED_LENGTH_PREDICTOR_HH

#include <cstdint>
#include <optional>

#include "common/assoc_table.hh"
#include "common/types.hh"
#include "pred/history_ring.hh"

namespace tpcp
{
class Rng;
class StateWriter;
class StateReader;
} // namespace tpcp

namespace tpcp::pred
{

/** Configuration of the run-length-class predictor. */
struct LengthPredictorConfig
{
    /** RLE history order (the paper uses RLE-2). */
    unsigned order = 2;
    unsigned tableEntries = 32;
    unsigned tableWays = 4;
    /** Class predicted on a table miss (0 = the 1-15 class, which
     * dominates; the paper notes statically predicting "short" works
     * well for most programs). */
    unsigned defaultClass = 0;
    /**
     * Extension beyond the paper: hash the *class* of each history
     * run length instead of its exact value. Exact lengths (the
     * paper's formulation) make keys unique under run-length jitter,
     * so positive long-run predictions are rare; quantized keys
     * trade context precision for far higher table hit rates.
     */
    bool quantizeKeyLengths = false;
};

/** The result for one completed run. */
struct LengthPredRecord
{
    /** The class that was predicted when the run started. */
    unsigned predictedClass = 0;
    /** The class the completed run actually fell into. */
    unsigned actualClass = 0;
    /** The prediction came from a table hit (vs the default). */
    bool tableHit = false;

    bool correct() const { return predictedClass == actualClass; }
};

/**
 * Run-length-class predictor over the phase-ID interval stream.
 */
class RunLengthPredictor
{
  public:
    explicit RunLengthPredictor(
        const LengthPredictorConfig &config = {});

    /**
     * Observes the next interval's phase. When this observation
     * completes a run (a phase change) for which a prediction had
     * been made, returns the prediction/actual record.
     */
    std::optional<LengthPredRecord> observe(PhaseId actual);

    /**
     * Flushes the final (still open) run at end of trace, returning
     * its record if a prediction had been made for it.
     */
    std::optional<LengthPredRecord> finish();

    /**
     * The run-length class predicted for the *current* (still open)
     * run, set when the run started; nullopt before the first
     * change. This is what an online consumer (e.g. a DVS policy)
     * reads right after entering a new phase.
     */
    std::optional<unsigned>
    pendingPrediction() const
    {
        if (!havePending)
            return std::nullopt;
        return pendingClass;
    }

    /**
     * Fault hook: corrupts one random valid table entry. Unmitigated
     * a bit flips in the stored class or tag; mitigated the entry is
     * invalidated (ECC detect-and-drop) and retrains. Returns false
     * when the table holds no valid entry.
     */
    bool injectFault(Rng &rng, bool invalidate);

    /** Appends predictor state to a checkpoint snapshot. */
    void saveState(StateWriter &w) const;

    /** Restores predictor state from a checkpoint snapshot; stored
     * classes are clamped to the valid class range, and a history of
     * more than 8 runs is refused. */
    void loadState(StateReader &r);

  private:
    struct Entry
    {
        std::uint8_t cls = 0;      ///< predicted class
        std::uint8_t lastSeen = 0; ///< hysteresis: last observed class
    };

    std::uint64_t historyHash() const;
    void train(std::uint64_t key, unsigned actual_class);

    LengthPredictorConfig cfg;
    AssocTable<std::uint64_t, Entry> table;

    bool primed = false;
    PhaseId lastPhase = invalidPhaseId;
    std::uint64_t runLen = 0;
    /** The last 8 completed (phase, length) runs, oldest first. */
    HistoryRing<std::pair<PhaseId, std::uint64_t>, 8> rleHist;

    /** Prediction standing for the current run. */
    bool havePending = false;
    std::uint64_t pendingKey = 0;
    unsigned pendingClass = 0;
    bool pendingHit = false;
};

} // namespace tpcp::pred

#endif // TPCP_PRED_LENGTH_PREDICTOR_HH
