/**
 * @file
 * Phase-change predictors (paper sections 5.2.2-5.2.3 and 6.1): small
 * set-associative tables that learn the outcomes of phase changes,
 * indexed either by a hash of the last N *unique* phase IDs
 * (Markov-N) or by the last N (phase ID, run length) pairs of the
 * run-length-encoded phase history (RLE-N).
 *
 * Each table entry remembers the last outcome, a ring of the last 4
 * unique outcomes, a small frequency summary of the most common
 * outcomes (for Top-1/Top-4 prediction), and a 1-bit confidence
 * counter. A predictor configuration chooses which payload view to
 * predict from and whether confidence gates predictions.
 *
 * Update rules follow the paper: entries are inserted only when a
 * phase change occurs; a plain RLE entry that fires while the run
 * continues (a falsely predicted change) is removed, because the
 * last-value fallback would have been correct.
 */

#ifndef TPCP_PRED_CHANGE_PREDICTOR_HH
#define TPCP_PRED_CHANGE_PREDICTOR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>

#include "common/assoc_table.hh"
#include "common/logging.hh"
#include "common/sat_counter.hh"
#include "common/types.hh"
#include "pred/history_ring.hh"
#include "pred/outcome_payload.hh"
#include "pred/predictor_base.hh"

namespace tpcp
{
class Rng;
class StateWriter;
class StateReader;
} // namespace tpcp

namespace tpcp::pred
{

/** Which stored payload a predictor reads. */
enum class PayloadView
{
    Last, ///< the single most recent outcome
    Last4, ///< correct when the actual matches any of the last 4
           ///< unique outcomes
    Top1, ///< the most frequent outcome
    Top4, ///< correct when the actual is among the 4 most frequent
};

/** History kind indexing the table. */
enum class HistoryKind
{
    MarkovUnique, ///< hash of the last N unique phase IDs
    Rle,          ///< hash of the last N (phase, run length) pairs,
                  ///< including the current (still growing) run
};

/** Full configuration of one phase-change predictor. */
struct ChangePredictorConfig
{
    std::string name = "RLE-2";
    HistoryKind history = HistoryKind::Rle;
    unsigned order = 2; ///< N
    unsigned tableEntries = 32;
    unsigned tableWays = 4;
    PayloadView payload = PayloadView::Last;
    /** Gate predictions on the entry's 1-bit confidence counter. */
    bool useConfidence = true;
    unsigned confBits = 1;
    /**
     * Remove an entry that predicts a change which does not happen
     * (paper rule for the plain RLE predictor). When false the
     * entry's confidence is decremented instead.
     */
    bool removeOnFalseChange = false;

    // ---- Named configurations used in the figures ----
    static ChangePredictorConfig markov(unsigned order,
                                        PayloadView payload =
                                            PayloadView::Last,
                                        unsigned entries = 32);
    static ChangePredictorConfig rle(unsigned order,
                                     PayloadView payload =
                                         PayloadView::Last,
                                     unsigned entries = 32);
};

/**
 * The acceptable outcomes of one prediction, stored inline. Every
 * predictor offers at most 4: the Last-4/Top-4 payload views, TAGE's
 * candidate list and the perceptron's top-ranked successors.
 */
class CandidateSet
{
  public:
    static constexpr unsigned capacity = 4;

    CandidateSet() = default;
    CandidateSet(std::initializer_list<PhaseId> ids)
    {
        for (PhaseId id : ids)
            push_back(id);
    }

    unsigned size() const { return n; }
    bool empty() const { return n == 0; }
    const PhaseId *begin() const { return ids.data(); }
    const PhaseId *end() const { return ids.data() + n; }

    /** True when @p id is one of the outcomes. */
    bool
    contains(PhaseId id) const
    {
        return std::find(begin(), end(), id) != end();
    }

    /** Appends @p id; the set must not be full. */
    void
    push_back(PhaseId id)
    {
        tpcp_assert(n < capacity, "candidate set is full");
        ids[n++] = id;
    }

    /** Appends @p id unless it is present or the set is full. */
    void
    pushUnique(PhaseId id)
    {
        if (n < capacity && !contains(id))
            ids[n++] = id;
    }

    /** Keeps only the first @p count outcomes. */
    void truncate(unsigned count) { n = std::min(n, count); }

    friend bool
    operator==(const CandidateSet &a, const CandidateSet &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    std::array<PhaseId, capacity> ids{};
    unsigned n = 0;
};

/** One prediction of the next phase-change outcome. */
struct ChangePrediction
{
    bool tableHit = false;
    bool confident = false; ///< always true when confidence disabled
    /** Primary predicted outcome (per the payload view). */
    PhaseId primary = invalidPhaseId;
    /** All acceptable outcomes (Last4/Top4 views list up to 4). */
    CandidateSet candidates;
    /** Analog confidence of the primary outcome for predictors that
     * produce one (the perceptron's score margin); 0 otherwise. The
     * boolean `confident` is this thresholded. */
    double analog = 0.0;

    /** True when @p actual matches any acceptable outcome. */
    bool
    matches(PhaseId actual) const
    {
        return candidates.contains(actual);
    }
};

/** What happened at an observed phase change (for Figure 8 stats). */
struct ChangeOutcome
{
    bool tableHit = false;
    bool confident = false;
    bool primaryCorrect = false;
    bool anyCorrect = false; ///< actual was among the candidates
};

/**
 * A Markov-N or RLE-N phase-change predictor.
 */
class ChangePredictor : public PhaseChangePredictor
{
  public:
    explicit ChangePredictor(const ChangePredictorConfig &config);

    /**
     * Predicts the outcome of the next phase change from the current
     * history state. With RLE history the run length in the index
     * also encodes *when*: a hit means "a change happened from this
     * exact state before", so a confident hit doubles as a
     * change-is-imminent signal for next-interval prediction.
     */
    ChangePrediction predict() const override;

    /**
     * Observes the phase of the next interval, updating history and
     * the table. Returns the change-outcome record when this
     * observation was a phase change (for change-prediction
     * statistics), std::nullopt otherwise.
     */
    std::optional<ChangeOutcome> observe(PhaseId actual) override;

    /** The predictor's configured display name. */
    const std::string &name() const override { return cfg.name; }

    /** Last-4/Top-4 payloads accept any candidate as correct. */
    bool
    acceptAny() const override
    {
        return cfg.payload == PayloadView::Last4 ||
               cfg.payload == PayloadView::Top4;
    }

    /** Current phase (last observed); invalid before priming. */
    PhaseId currentPhase() const { return lastPhase; }

    /** Length of the current run so far, in intervals. */
    std::uint64_t currentRunLength() const { return runLen; }

    /**
     * Fault hook: corrupts one random valid table entry. Unmitigated
     * (@p invalidate false) a raw bit flips in the entry's stored
     * outcome, tag or confidence — the entry silently mislearns.
     * Mitigated (@p invalidate true) the error is detected (ECC
     * model) and the entry invalidated, degrading to a miss that
     * retrains. Returns false when the table holds no valid entry.
     */
    bool injectFault(Rng &rng, bool invalidate) override;

    /** Appends predictor state to a checkpoint snapshot. */
    void saveState(StateWriter &w) const override;

    /** Restores predictor state from a checkpoint snapshot; counters
     * and ring/frequency cursors are clamped to their ranges, and a
     * history longer than observe() keeps is refused. */
    void loadState(StateReader &r) override;

  private:
    /** Stored per-entry learning state: the outcome payload and the
     * confidence counter. */
    struct Entry : OutcomePayload
    {
        SatCounter conf{1, 0};
    };

    /** Recomputes prefixHash from the history, then the index. */
    void foldHistory();
    /** Recomputes curHash and curSet from prefixHash and runLen. */
    void updateIndex();
    void fillPrediction(const Entry &e, ChangePrediction &out) const;
    static CandidateSet topOutcomes(const Entry &e, unsigned n);

    ChangePredictorConfig cfg;
    AssocTable<std::uint64_t, Entry> table;

    bool primed = false;
    PhaseId lastPhase = invalidPhaseId;
    std::uint64_t runLen = 0;
    /** Markov: last N unique phase IDs (newest = current). */
    HistoryRing<PhaseId, 8> uniqueHist;
    /** RLE: last N-1 completed (phase, length) runs (newest = most
     * recent); the current run completes the index. */
    HistoryRing<std::pair<PhaseId, std::uint64_t>, 8> rleHist;

    // Derived from the history; never serialized, rebuilt by
    // loadState(). The history changes only at a phase change, so a
    // run that continues costs one mix64 (RLE) or nothing (Markov).
    /** Markov: the fold of uniqueHist. RLE: the fold of rleHist and
     * the current phase. */
    std::uint64_t prefixHash = 0;
    /** The table tag of the current state: prefixHash, RLE folded
     * with the current run length. */
    std::uint64_t curHash = 0;
    /** The table set of curHash. */
    unsigned curSet = 0;
};

} // namespace tpcp::pred

#endif // TPCP_PRED_CHANGE_PREDICTOR_HH
