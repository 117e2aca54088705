/**
 * @file
 * The Past Signature Table (paper Figure 1): a fully-associative LRU
 * table of past code signatures, each with its phase ID, transition
 * min counter, per-entry similarity threshold (for the adaptive
 * scheme) and running CPI statistics.
 *
 * Storage is structure-of-arrays: the signature bytes of all entries
 * live in one contiguous row-major buffer with the per-entry weights
 * and thresholds cached in flat parallel arrays, so match() — the
 * per-interval hot path — is one pass over the live rows in index
 * order: an inline simd::sad16 per 16-byte chunk, a one-multiply
 * prune bound, and one double division for the rows that survive
 * it. Rows are padded with zero bytes to a multiple of
 * simd::kRowPad so every chunk is whole; the padding contributes
 * |0-0| = 0 to every distance, and the vector and scalar builds
 * return bit-identical match results.
 * Entries are referred to by index, which stays valid as an
 * unbounded table grows (a `SigEntry *` into a reallocating vector
 * would not).
 *
 * LRU replacement is O(1): entries are threaded on an intrusive
 * doubly-linked list in use order (head = least recently used), kept
 * in lockstep with the per-entry `lastUse` ticks.
 */

#ifndef TPCP_PHASE_SIGNATURE_TABLE_HH
#define TPCP_PHASE_SIGNATURE_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/running_stats.hh"
#include "common/sat_counter.hh"
#include "common/types.hh"
#include "phase/classifier_config.hh"
#include "phase/signature.hh"

namespace tpcp
{
class StateWriter;
class StateReader;
} // namespace tpcp

namespace tpcp::phase
{

namespace detail
{

/**
 * The match scan's prune bound: a Manhattan distance D >= this value
 * proves (double)D / denom >= @p cutoff, so the entry cannot match.
 * trunc(cutoff * denom) + 2 is sound because the double product is
 * within one unit of the true product (cutoff <= 1 and denom, a sum
 * of two 32-bit weights, is far below 2^52), and the smallest sound
 * bound is at most ceil(true product) + 1. A bound above the
 * smallest one only lets extra rows through to the exact double
 * tests, which reject them. One multiply, no division; a
 * non-positive cutoff gives 0, which prunes every row. Pinned by the
 * DistanceBoundProperty test.
 */
inline std::uint64_t
distanceBoundUpper(double cutoff, std::uint64_t denom)
{
    if (!(cutoff > 0.0))
        return 0;
    // Both conversions go through int64 (exact: every value here is
    // below 2^35), which x86-64 does in one instruction each.
    const double prod =
        cutoff * static_cast<double>(static_cast<std::int64_t>(denom));
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(prod)) +
           2;
}

} // namespace detail

/**
 * Classification metadata of one signature-table entry. The entry's
 * signature bytes, weight and similarity threshold live in the
 * table's flat arrays; this struct holds the cold per-entry state.
 */
struct SigEntryMeta
{
    /** Real phase ID once stable; transitionPhaseId before that. */
    PhaseId phase = transitionPhaseId;
    /** Counts intervals classified into this entry (section 4.4),
     * including the interval that inserted it. */
    SatCounter minCounter{6, 0};
    /** Running CPI average of intervals classified here. */
    RunningStats cpi;
    /** LRU tick. */
    std::uint64_t lastUse = 0;
};

/**
 * Fully-associative signature storage with LRU replacement and
 * nearest-signature matching.
 *
 * With capacity 0 the table is unbounded (models the infinite table
 * of [25] used as a reference point in Figure 2).
 */
class SignatureTable
{
  public:
    /** Index value meaning "no entry". */
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    /** Outcome of a match: entry index + normalized distance. */
    struct MatchResult
    {
        std::uint32_t index = npos;
        /** Normalized difference to the matched entry (meaningless
         * when no entry matched). */
        double distance = 0.0;

        explicit operator bool() const { return index != npos; }
    };

    /**
     * @param capacity      maximum entries (0 = unbounded)
     * @param min_ctr_bits  width of each entry's min counter
     * @param track_parity  maintain per-row ECC check bits (the
     *                      fault-mitigation machinery). When false —
     *                      the classifier passes its parityProtect
     *                      flag — rewriting a row skips the parity
     *                      recompute entirely; checkParityAt() and
     *                      scrubParity() must not be used.
     */
    SignatureTable(unsigned capacity, unsigned min_ctr_bits,
                   bool track_parity = true);

    /**
     * Finds the entry matching @p sig: among entries whose
     * (per-entry) threshold exceeds the normalized difference, picks
     * the first or the most similar per @p policy. Returns a result
     * with index == npos when nothing matches. Does not update LRU
     * state.
     */
    MatchResult match(const Signature &sig, MatchPolicy policy) const;

    /**
     * Hot-path variant of match() over a raw compressed signature
     * (@p ndims bytes at @p dims with weight @p weight, as produced
     * by Signature::compressTo()).
     */
    MatchResult match(const std::uint8_t *dims, std::size_t ndims,
                      std::uint32_t weight, MatchPolicy policy) const;

    /**
     * Inserts a new entry for @p sig with threshold @p threshold,
     * evicting the LRU entry when at capacity. The new entry's min
     * counter starts at 1: the inserting interval is its first
     * sighting (paper section 4.4 counts it toward min_count).
     * Returns the new entry's index.
     */
    std::uint32_t insert(const Signature &sig, double threshold);

    /** Hot-path variant of insert() over a raw compressed signature;
     * @p bits_per_dim is recorded for signatureAt(). */
    std::uint32_t insert(const std::uint8_t *dims, std::size_t ndims,
                         std::uint32_t weight, double threshold,
                         unsigned bits_per_dim);

    /** Replaces entry @p idx's stored signature bytes (signature
     * creep: a matched entry tracks the most recent code profile). */
    void replaceSignature(std::uint32_t idx, const std::uint8_t *dims,
                          std::size_t ndims, std::uint32_t weight);

    /** Marks entry @p idx most recently used. */
    void touch(std::uint32_t idx);

    /** Mutable classification metadata of entry @p idx. */
    SigEntryMeta &
    meta(std::uint32_t idx)
    {
        return metas[idx];
    }

    const SigEntryMeta &
    meta(std::uint32_t idx) const
    {
        return metas[idx];
    }

    /** Per-entry similarity threshold (section 4.6). */
    double
    threshold(std::uint32_t idx) const
    {
        return thresholds[idx];
    }

    void
    setThreshold(std::uint32_t idx, double t)
    {
        thresholds[idx] = t;
    }

    /** Cached weight of entry @p idx's signature. */
    std::uint32_t
    weightAt(std::uint32_t idx) const
    {
        return weights[idx];
    }

    /** Materializes entry @p idx's signature (analysis / tests). */
    Signature signatureAt(std::uint32_t idx) const;

    /** Number of valid entries. */
    std::size_t size() const { return metas.size(); }

    /** Capacity (0 = unbounded). */
    unsigned capacity() const { return cap; }

    /** Cumulative count of entries evicted by LRU replacement. */
    std::uint64_t evictions() const { return evictions_; }

    /** Removes all entries. */
    void clear();

    // ---- Soft-error model & parity protection (fault subsystem) ----

    /** Bytes per stored signature row (0 before the first insert). */
    std::size_t rowSize() const { return rowDims; }

    /**
     * Fault hook: flips bit @p bit of entry @p idx's stored signature
     * bytes *without* updating the row's parity byte, modelling a
     * soft error in the SRAM holding the signature. Marks the table
     * unverified (see checkParityAt()).
     */
    void flipSignatureBit(std::uint32_t idx, unsigned bit);

    /**
     * Verifies entry @p idx against its per-row check bits. A clean
     * row returns true immediately. A single flipped bit is located
     * by the position code and corrected in place (SEC-DED style —
     * the XOR-fold parity says *which bit position* flipped, the
     * position code says *where*), also returning true. Damage beyond
     * one bit is detected but uncorrectable: the entry is quarantined
     * (excluded from matching until repaired) and false is returned.
     *
     * The check bits are recomputed only while the table is
     * *unverified*: some non-quarantined row may not match its check
     * bits. Only flipSignatureBit() and loadState() can cause that;
     * every other row write (insert, replaceSignature, repairEntry,
     * the in-place correction here) refreshes or re-verifies the
     * row's check bits. So while the table is verified, every
     * non-quarantined row is known clean, and returning
     * !quarantinedAt(@p idx) without recomputing is exactly what the
     * full check would return. A clean result here does not verify
     * the table; only scrubParity() does.
     */
    bool checkParityAt(std::uint32_t idx);

    /** Soft errors corrected in place by the per-row ECC. */
    std::uint64_t eccCorrections() const { return corrections_; }

    /**
     * Parity-checks every entry (periodic scrub). Returns the number
     * of entries newly quarantined by this pass. On a verified table
     * (see checkParityAt()) that number is 0 and nothing is scanned.
     * Otherwise every non-quarantined row is checked in full, and the
     * table is marked verified only after that scan: each row then
     * either matches its check bits or is quarantined.
     */
    std::uint32_t scrubParity();

    /** True when entry @p idx is quarantined by a parity failure. */
    bool
    quarantinedAt(std::uint32_t idx) const
    {
        return quarantined[idx] != 0;
    }

    /** Number of currently quarantined entries. */
    std::uint32_t numQuarantined() const { return numQuarantined_; }

    /**
     * Best-match over the *quarantined* entries only: each entry's
     * syndrome-corrected distance is compared against its own
     * threshold. Used by the classifier's miss path to decide
     * between repairing a damaged entry and inserting a genuinely
     * new one. Returns index == npos when nothing is close enough.
     */
    MatchResult matchQuarantined(const std::uint8_t *dims,
                                 std::size_t ndims,
                                 std::uint32_t weight) const;

    /**
     * Repairs a quarantined entry in place with a fresh signature:
     * the corrupted bytes are overwritten, parity recomputed and the
     * quarantine lifted, while the entry's classification metadata
     * (phase ID, min counter, CPI stats, threshold) is retained — the
     * narrow metadata fields are modelled as ECC-protected, so only
     * the wide signature bytes are lost to the soft error.
     */
    void repairEntry(std::uint32_t idx, const std::uint8_t *dims,
                     std::size_t ndims, std::uint32_t weight);

    /** Appends full table state to a checkpoint snapshot. */
    void saveState(StateWriter &w) const;

    /** Restores table state from a checkpoint snapshot; counters and
     * thresholds are clamped to their representable ranges. */
    void loadState(StateReader &r);

  private:
    /** Appends or recycles a slot and returns its index. */
    std::uint32_t allocSlot(std::size_t ndims);

    /** Marks @p idx most recently used: bumps its lastUse tick and
     * moves it to the back of the LRU list. */
    void bumpUse(std::uint32_t idx);

    /** Unlinks @p idx from the LRU list (no-op when detached). */
    void lruDetach(std::uint32_t idx);

    /** Appends detached @p idx at the MRU end of the LRU list. */
    void lruAppend(std::uint32_t idx);

    /** XOR fold of entry @p idx's signature bytes, computed a 64-bit
     * word at a time. */
    std::uint8_t computeParity(std::uint32_t idx) const;

    /** XOR of the 1-based positions of all set bits in entry
     * @p idx's row: a single flipped bit at position p changes this
     * by exactly p, which locates the error. Computed a 64-bit word
     * at a time with parity folds, not bit by bit. */
    std::uint16_t computeEccPos(std::uint32_t idx) const;

    /** Stores fresh check bits for entry @p idx and lifts any
     * quarantine (called whenever the row's bytes are rewritten
     * wholesale). */
    void refreshParity(std::uint32_t idx);

    unsigned cap;
    unsigned minCtrBits;
    /** Maintain per-row ECC check bits (see constructor). */
    bool parityTracked;
    /** Bytes per signature row; fixed by the first insert. */
    std::size_t rowDims = 0;
    /** rowDims padded to a multiple of simd::kRowPad: the row-major
     * pitch of `rows`. Padding bytes are always zero. */
    std::size_t rowStride_ = 0;
    /** Bits per dimension of the stored signatures (materialization
     * only); fixed by the first insert. */
    unsigned rowBits = 6;
    /** All signature bytes, row-major, rowStride_ bytes per entry
     * (rowDims payload + zero padding). */
    std::vector<std::uint8_t> rows;
    /** Intrusive LRU list, parallel to rows: lruHead is the LRU
     * victim, lruTail the most recently used entry. */
    std::vector<std::uint32_t> lruPrev;
    std::vector<std::uint32_t> lruNext;
    std::uint32_t lruHead = npos;
    std::uint32_t lruTail = npos;
    /** Cached signature weights, parallel to rows. */
    std::vector<std::uint32_t> weights;
    /** Per-entry similarity thresholds, parallel to rows. */
    std::vector<double> thresholds;
    /** Cold per-entry state, parallel to rows. */
    std::vector<SigEntryMeta> metas;
    /** XOR-fold parity byte per entry, parallel to rows. */
    std::vector<std::uint8_t> parity;
    /** Error-locating position code per entry (see computeEccPos),
     * parallel to rows. */
    std::vector<std::uint16_t> eccPos;
    /** Non-zero when the entry failed a parity check, parallel to
     * rows; quarantined entries are skipped by match(). */
    std::vector<std::uint8_t> quarantined;
    std::uint32_t numQuarantined_ = 0;
    /** Some non-quarantined row may not match its check bits (see
     * checkParityAt()). Not saved: a restored table starts set. */
    bool unverified = false;
    std::uint64_t corrections_ = 0;
    std::uint64_t tick = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace tpcp::phase

#endif // TPCP_PHASE_SIGNATURE_TABLE_HH
