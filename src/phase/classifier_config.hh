/**
 * @file
 * Configuration of the phase classification architecture. Defaults
 * follow the paper's preferred configuration (section 5): 16
 * accumulator counters, 6 bits per counter with dynamic bit
 * selection, a 32-entry LRU signature table, 25% similarity
 * threshold, transition-phase min-count threshold of 8 and a 25%
 * CPI-deviation threshold when adaptive thresholds are enabled.
 */

#ifndef TPCP_PHASE_CLASSIFIER_CONFIG_HH
#define TPCP_PHASE_CLASSIFIER_CONFIG_HH

#include "phase/signature.hh"

namespace tpcp::phase
{

/** Which table entry wins when several satisfy the threshold. */
enum class MatchPolicy
{
    /** First satisfying entry in table order (prior work [25]). */
    FirstMatch,
    /** Entry with the smallest distance (this paper). */
    BestMatch,
};

/** Full classifier configuration. */
struct ClassifierConfig
{
    // ---- Signature formation ----
    unsigned numCounters = 16;
    unsigned bitsPerDim = 6;
    BitSelection bitSelection = BitSelection::Dynamic;
    /** Low bit of the stored window in static mode. */
    unsigned staticShift = 14;

    // ---- Signature table ----
    /** Table entries; 0 models an unbounded table. */
    unsigned tableEntries = 32;

    // ---- Classification ----
    /** Initial similarity threshold (normalized difference). A
     * signature must differ by *less* than this to match. */
    double similarityThreshold = 0.25;
    MatchPolicy matchPolicy = MatchPolicy::BestMatch;

    // ---- Transition phase (section 4.4) ----
    /** Intervals a signature must accumulate before its phase is
     * considered stable; 0 disables the transition phase (every new
     * signature immediately gets a real phase ID, as in [25]). */
    unsigned minCountThreshold = 8;
    /** Width of the per-entry min counter. */
    unsigned minCounterBits = 6;

    // ---- Adaptive per-phase thresholds (section 4.6) ----
    bool adaptiveThreshold = false;
    /** Relative CPI deviation that triggers threshold halving. */
    double cpiDeviationThreshold = 0.25;
    /** Per-entry thresholds are never halved below this floor. */
    double thresholdFloor = 0.01;

    // ---- Soft-error mitigation (fault subsystem) ----
    /** Parity-protect signature-table rows: parity is checked on
     * every match and on every miss (demand scrub), parity-failed
     * entries are quarantined and repaired in place by the next
     * unmatched interval, preserving their phase ID. Off by default:
     * fault-free behavior and all golden outputs are unchanged. */
    bool parityProtect = false;
    /** When parityProtect is on, additionally parity-scrub the whole
     * table every this many intervals (0 = demand scrubbing only).
     * The results are those of a whole-table scrub, but a scrub only
     * scans when a soft error or a checkpoint restore may have left a
     * row disagreeing with its check bits; otherwise it is provably a
     * no-op and costs one flag test (SignatureTable::scrubParity). */
    unsigned scrubEvery = 0;

    /** Paper baseline reproducing [25]: 32 counters, static 12.5%
     * threshold, no transition phase, first match. */
    static ClassifierConfig
    sherwoodBaseline()
    {
        ClassifierConfig c;
        c.numCounters = 32;
        c.similarityThreshold = 0.125;
        c.minCountThreshold = 0;
        c.matchPolicy = MatchPolicy::FirstMatch;
        return c;
    }

    /** This paper's preferred configuration (section 5). */
    static ClassifierConfig
    paperDefault()
    {
        ClassifierConfig c;
        c.adaptiveThreshold = true;
        return c;
    }
};

} // namespace tpcp::phase

#endif // TPCP_PHASE_CLASSIFIER_CONFIG_HH
