/**
 * @file
 * A TAGE-style phase-change predictor: a Markov-1 base component
 * plus a stack of tagged tables indexed by geometrically lengthening
 * run-length-encoded phase histories.
 *
 * The branch-predictor TAGE recipe (Seznec & Michaud) transfers to
 * phase changes almost unchanged: short histories give coverage,
 * long histories disambiguate recurring super-patterns, and the
 * provider/altpred + useful-bit machinery arbitrates between them.
 * Histories here are sequences of completed (phase ID, run-length
 * class) runs rather than branch outcomes, folded into each table's
 * index and tag; the base component degenerates to the paper's
 * Markov-1 table so the predictor never does worse than its simplest
 * ancestor. Each entry carries a ring of the last 4 unique outcomes
 * so the Last-4 acceptance rule of the paper's figures applies.
 */

#ifndef TPCP_PRED_TAGE_PREDICTOR_HH
#define TPCP_PRED_TAGE_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/assoc_table.hh"
#include "common/sat_counter.hh"
#include "common/types.hh"
#include "pred/change_predictor.hh"
#include "pred/history_ring.hh"
#include "pred/outcome_payload.hh"
#include "pred/predictor_base.hh"

namespace tpcp::pred
{

/** Configuration of the TAGE-style predictor. */
struct TagePredictorConfig
{
    std::string name = "TAGE";
    /** Base (Markov-1) component entries; set-associative LRU like
     * the paper's tables. */
    unsigned baseEntries = 64;
    unsigned baseWays = 4;
    /** Entries per tagged table; direct-mapped, power of two. */
    unsigned tableEntries = 128;
    /** Partial tag width of the tagged tables. */
    unsigned tagBits = 12;
    /** History length per tagged table, in completed runs: at most
     * TagePredictor::maxTables tables of at most
     * TagePredictor::maxHistory runs. The run lengths entering the
     * history are class-quantized (exact lengths rarely recur — the
     * paper's RLE tables show the cost of indexing on them). */
    std::vector<unsigned> historyLengths = {1, 2, 3, 4, 6, 8};
    /** Per-entry outcome-confidence counter width. */
    unsigned confBits = 2;
    /** predict() reports confident when the chosen entry's
     * confidence is at least this (sweepable, 0 disables gating). */
    unsigned confThreshold = 2;
    /** Useful-counter width of the tagged entries. */
    unsigned usefulBits = 2;
    /** Observed phase changes between useful-counter halvings. */
    std::uint64_t usefulHalvePeriod = 512;
    /** Score any of the entry's last-4 unique outcomes as correct
     * (the figures' Last-4 rule); false scores the primary only. */
    bool acceptAnyRule = true;
    /** Cascade with an internal RLE-2 table whose confident alarm
     * takes priority. The RLE key holds the exact current run
     * length, so its rare alarms are precisely timed; TAGE
     * generalizes where it is silent. Off for the figure harnesses
     * (pure TAGE); the AdaptController preset turns it on so the
     * anticipation source never loses the paper predictor's
     * precision. */
    bool rleAssist = false;
};

/**
 * The TAGE-style phase-change predictor.
 *
 * Lookup walks the tagged tables from the longest history down; the
 * first tag match is the provider and the next match (or the base)
 * the alternate. A provider that has never been confirmed (weak
 * confidence, zero useful) defers to the alternate, and a mispredict
 * allocates a fresh entry in one longer-history table, aging the
 * useful counters when none is free.
 */
class TagePredictor : public PhaseChangePredictor
{
  public:
    /** Capacity of the fixed per-table index state and history. */
    static constexpr unsigned maxTables = 6;
    static constexpr unsigned maxHistory = 8;

    /** Raises tpcp::Error on a geometry outside the fixed capacity
     * or an otherwise invalid configuration. */
    explicit TagePredictor(const TagePredictorConfig &config = {});

    ChangePrediction predict() const override;
    std::optional<ChangeOutcome> observe(PhaseId actual) override;

    const std::string &name() const override { return cfg.name; }
    bool acceptAny() const override { return cfg.acceptAnyRule; }

    bool injectFault(Rng &rng, bool invalidate) override;

    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

  private:
    /** Base-table payload (the Markov-1 component); keyed by the
     * current phase in a set-associative LRU table. The frequency
     * summary is the paper's Top-N payload view. */
    struct BaseValue : OutcomePayload
    {
        SatCounter conf{2, 0};
        /** Per-entry payload-view vote (>= midpoint ranks the
         * frequency summary ahead of ring recency), trained on the
         * changes where exactly one of the two views was correct. */
        SatCounter view{3, 3};
        /** Terminal run length last observed out of this context
         * (0 = never trained). Unlike the RLE tables, the history
         * index carries no current-run position, so without this an
         * entry would alarm "change next interval" from the first
         * interval of a run — confidence gates on the run having
         * reached this length (imminence). */
        std::uint32_t lastLen = 0;
        /** The last two terminal runs out of this context had the
         * same length (the RLE tables get this filter for free:
         * their key holds the exact length, so an alarm only fires
         * on an exact recurrence). */
        bool lenStable = false;
    };

    /** Tagged-table entry. */
    struct TaggedEntry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        PhaseId outcome = invalidPhaseId;
        OutcomeRing ring;
        SatCounter conf{2, 0};
        SatCounter useful{2, 0};
        /** Terminal run length last observed (imminence gate; see
         * BaseValue::lastLen). */
        std::uint32_t lastLen = 0;
        /** See BaseValue::lenStable. */
        bool lenStable = false;
    };

    /** Where one lookup landed across the component stack. */
    struct Lookup
    {
        int provider = -1; ///< tagged-table index, -1 = base/none
        int alt = -1;      ///< next-longest match below the provider
        const BaseValue *baseEntry = nullptr; ///< null on base miss
    };

    Lookup lookup() const;
    /** TAGE's own prediction, ignoring the cascade override.
     * @p alarm_out reports the raw imminence alarm (pre assist
     * vote) so observe() can shadow-train the vote. */
    ChangePrediction ownPrediction(bool *alarm_out) const;
    /** The entry predict()/observe() read, honoring alt-on-weak;
     * null when nothing hit. */
    const TaggedEntry *chosenTagged(const Lookup &l) const;
    /** Appends the base entry's outcomes to @p out, up to 4
     * candidates total: most recent first, then ring recency and
     * the frequency summary in the order the view vote prefers. */
    void appendBaseCandidates(const BaseValue &b,
                              CandidateSet &out) const;
    /** Recomputes index, tagOf and baseSet from the history and the
     * current phase; called whenever either changes. */
    void updateIndex();
    /** Builds the accept-any candidate list of @p chosen under one
     * ring-vs-base order, exactly as predict() would emit it. */
    CandidateSet assembleCandidates(
        const Lookup &l, const TaggedEntry &chosen,
        bool ring_early) const;
    void trainOnChange(PhaseId actual);

    TagePredictorConfig cfg;
    AssocTable<std::uint64_t, BaseValue> base;
    /** tables[i] has cfg.historyLengths[i]; longer index = longer
     * history. */
    std::vector<std::vector<TaggedEntry>> tables;
    /** The current history state's slot and tag in each tagged table
     * and its base-table set; never serialized, rebuilt by
     * updateIndex(). */
    std::array<std::uint32_t, maxTables> index{};
    std::array<std::uint16_t, maxTables> tagOf{};
    std::uint32_t baseSet = 0;

    /** Adaptive use-alt-on-weak vote (>= midpoint trusts the
     * alternate over a weak provider), trained on disagreements. */
    SatCounter useAltOnNa{4, 8};
    /** Global payload-view vote; breaks the tie when an entry's own
     * view counter sits in the undecided middle of its range. */
    SatCounter viewVote{6, 31};
    /** Global candidate-order vote (>= midpoint ranks the chosen
     * tagged entry's ring ahead of the base filler), trained on the
     * changes where exactly one of the two sources held the
     * outcome. */
    SatCounter ringFirstVote{8, 128};

    bool primed = false;
    PhaseId lastPhase = invalidPhaseId;
    std::uint64_t runLen = 0;
    std::uint64_t changesSeen = 0;
    /** Completed (phase, run-length class) runs, oldest first;
     * capped at the longest configured history. */
    HistoryRing<std::pair<PhaseId, std::uint8_t>, maxHistory> history;
    /** The rleAssist cascade component; null unless configured. */
    std::unique_ptr<ChangePredictor> rle;
    /** Adaptive assist vote (rleAssist only): shadow-scores TAGE's
     * own alarms against what the next interval actually did and
     * withholds them while the vote is losing — some workloads are
     * served completely by the RLE component, and every extra alarm
     * there only costs. */
    SatCounter assistVote{4, 8};
};

} // namespace tpcp::pred

#endif // TPCP_PRED_TAGE_PREDICTOR_HH
