/**
 * @file
 * Last-value phase prediction with per-phase confidence counters
 * (paper section 5.1/5.2.1): always predict that the next interval
 * stays in the current phase; a per-phase N-bit saturating counter,
 * trained on last-value correctness, says how much to trust that.
 */

#ifndef TPCP_PRED_LAST_VALUE_HH
#define TPCP_PRED_LAST_VALUE_HH

#include <unordered_map>

#include "common/sat_counter.hh"
#include "common/types.hh"

namespace tpcp
{
class StateWriter;
class StateReader;
} // namespace tpcp

namespace tpcp::pred
{

/** Configuration of the last-value confidence counters. */
struct LastValueConfig
{
    /** Counter width; the paper uses 3 bits. */
    unsigned confBits = 3;
    /** Confident when counter >= threshold; the paper uses 6 (one
     * less than fully saturated). */
    unsigned confThreshold = 6;
};

/**
 * Last-value predictor: predicts the previous interval's phase, and
 * tracks one confidence counter per phase ID.
 */
class LastValuePredictor
{
  public:
    explicit LastValuePredictor(const LastValueConfig &config = {});

    /** True once at least one interval has been observed. */
    bool primed() const { return primed_; }

    /** The prediction: the phase of the last observed interval. */
    PhaseId predict() const { return last; }

    /** True when the current phase's confidence counter is at or
     * above the threshold. */
    bool confident() const;

    /**
     * Observes the next interval's phase: trains the (previous)
     * phase's confidence counter on last-value correctness, then
     * advances.
     */
    void observe(PhaseId actual);

    /** Appends predictor state to a checkpoint snapshot. */
    void saveState(StateWriter &w) const;

    /** Restores predictor state from a checkpoint snapshot; a primed
     * snapshot without a counter for its last phase is refused. */
    void loadState(StateReader &r);

  private:
    LastValueConfig cfg;
    PhaseId last = invalidPhaseId;
    bool primed_ = false;
    /** The counter of the current phase `last`. It lives here while
     * the run continues, so a repeat interval probes no map, and is
     * written back to `conf` when the phase changes. */
    SatCounter cur;
    /** Counters of every phase seen; `conf[last]` is stale while
     * `cur` holds it. */
    std::unordered_map<PhaseId, SatCounter> conf;
};

} // namespace tpcp::pred

#endif // TPCP_PRED_LAST_VALUE_HH
