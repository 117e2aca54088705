/**
 * @file
 * The exploration policy: learns, per phase, which lattice
 * configuration minimizes the measured energy-delay product.
 *
 * The controller consults the policy at every interval boundary
 * (choose) and feeds back each interval's measured cycles and energy
 * under the configuration that actually ran (record). The policy is
 * a deterministic function of that feedback stream, which is what
 * keeps `tpcp adapt --jobs=N` byte-identical for every N.
 *
 * GreedyHillClimbPolicy implements per-phase greedy hill climbing
 * over cumulative per-(phase, configuration) statistics: the base
 * (big) configuration is measured first, then lattice neighbors are
 * sampled a few intervals each; the neighbors of whichever
 * configuration currently has the best mean interval-EDP are
 * enqueued next. Every measured interval updates the statistics of
 * the (phase, config) pair that actually ran — including intervals
 * spent in a stale configuration after an unanticipated phase
 * change, which become free evaluations. A revisit budget bounds
 * the number of interval-consuming candidate evaluations per phase;
 * afterwards the phase keeps running its best-known configuration,
 * whose continuing measurements can still demote it (with
 * hysteresis) if the early samples were unrepresentative.
 */

#ifndef TPCP_ADAPT_POLICY_HH
#define TPCP_ADAPT_POLICY_HH

#include <cstddef>
#include <deque>
#include <map>
#include <set>

#include "adapt/lattice.hh"
#include "common/running_stats.hh"
#include "common/types.hh"

namespace tpcp::adapt
{

/** Tuning knobs of the greedy hill-climb policy. */
struct PolicyConfig
{
    /** Intervals sampled per candidate before judging it. Intervals
     * of one phase are near-homogeneous by construction and the
     * cumulative statistics keep correcting after the verdict, so a
     * single sample suffices and keeps the exploration tax low. */
    unsigned sampleIntervals = 1;
    /** Interval-consuming candidate evaluations allowed per phase
     * (after the base configuration's own evaluation); when
     * exhausted the phase settles on the best configuration seen.
     * Candidates already covered by cross-samples are free. */
    unsigned revisitBudget = 8;
    /** Relative mean-EDP improvement a challenger must show before
     * it demotes the incumbent best (hysteresis against config
     * ping-pong on near-tied means). */
    double switchMargin = 0.02;
    /** Pin the transition phase (ID 0) to the big configuration.
     * Off by default: in a leakage-dominated regime even the
     * heterogeneous transition intervals have a consistent best
     * size, and pinning them big forfeits that saving. */
    bool bigOnTransition = false;
};

/**
 * Per-phase greedy hill climbing over the lattice (see file
 * comment).
 */
class GreedyHillClimbPolicy
{
  public:
    GreedyHillClimbPolicy(const ConfigLattice &lattice,
                          const PolicyConfig &config = {});

    /** The configuration to run while in @p phase. */
    std::size_t choose(PhaseId phase);

    /**
     * Feedback for one interval of @p phase that ran on @p cfg with
     * measured @p cycles and @p energy (penalty-free: switch costs
     * are accounted by the controller, not fed to the learner).
     */
    void record(PhaseId phase, std::size_t cfg, double cycles,
                double energy);

    /** The configuration the policy currently believes is best for
     * @p phase (for reporting). */
    std::size_t bestChoice(PhaseId phase) const;

    /** True once @p phase has exhausted its exploration budget. */
    bool settled(PhaseId phase) const;

  private:
    struct PhaseState
    {
        /** Cumulative interval-EDP samples per configuration. */
        std::map<std::size_t, RunningStats> stats;
        /** Incumbent best (margin-protected; see switchMargin). */
        std::size_t best = ConfigLattice::bigIndex;
        std::size_t candidate = ConfigLattice::bigIndex;
        /** Configurations ever queued (or sampled as candidates). */
        std::set<std::size_t> enqueued;
        std::deque<std::size_t> queue;
        unsigned evals = 0;
        bool exploring = true;
    };

    PhaseState &stateFor(PhaseId phase);
    /** Re-derives the margin-protected incumbent from the stats. */
    std::size_t currentBest(PhaseState &st) const;
    void finishCandidate(PhaseState &st);
    void nextCandidate(PhaseState &st);

    const ConfigLattice &lattice;
    PolicyConfig cfg;
    std::map<PhaseId, PhaseState> phases;
};

} // namespace tpcp::adapt

#endif // TPCP_ADAPT_POLICY_HH
