/**
 * @file
 * AdaptController: the phase-guided dynamic reconfiguration loop.
 *
 * The controller replays a workload's per-interval execution over a
 * set of interval profiles — one per lattice configuration, all
 * recorded over the same interval grid, so the CPI of "interval t on
 * configuration c" is a measured quantity — and simulates the
 * adaptation protocol the paper motivates (sections 1 and 6.2):
 *
 *   interval t ends
 *     -> measured CPI/energy under the active config feed the policy
 *     -> next-phase predictor forecasts the phase of interval t+1
 *     -> the policy names its config for that phase
 *     -> a differing config triggers a switch, charged by kind:
 *        predicted (anticipated change), exploration (policy move),
 *        or reactive (unanticipated change - full penalty)
 *
 * Switch penalties are charged as cycles at the head of the next
 * interval (plus the leakage energy of those cycles), so a
 * mispredicted phase change costs real simulated time and shows up
 * in the energy-delay totals.
 */

#ifndef TPCP_ADAPT_CONTROLLER_HH
#define TPCP_ADAPT_CONTROLLER_HH

#include <cstddef>
#include <map>
#include <vector>

#include "adapt/energy_model.hh"
#include "adapt/lattice.hh"
#include "adapt/penalty.hh"
#include "adapt/policy.hh"
#include "pred/predictor_spec.hh"
#include "trace/interval_profile.hh"

namespace tpcp::adapt
{

/** Controller configuration (one named policy preset). */
struct ControllerOptions
{
    /** Consult the phase-change predictor for anticipatory
     * switches; false degrades to last-value prediction, turning
     * every phase-change switch reactive. */
    bool anticipate = true;
    /** Which phase-change predictor feeds the anticipatory
     * switches (the paper's RLE-2 by default; the greedy-tage and
     * greedy-perceptron presets swap in the new families). */
    pred::PredictorSpec changePredictor;
    /** Skip reactive switches while the run-length predictor calls
     * the new run short (class 0: < 16 intervals): a brief run does
     * not amortize a full flush + warmup. */
    bool lengthGate = true;
    PolicyConfig policy;
    PenaltyConfig penalty;
    EnergyWeights energy;
};

/** Accumulated cycles/energy/EDP of one simulated run. */
struct RunTotals
{
    double cycles = 0.0;
    double energy = 0.0;
    /** Sum of per-interval energy x delay products (the additive
     * energy-delay objective every policy and baseline optimizes). */
    double edp = 0.0;
};

/** Everything one controller run produced. */
struct ControllerResult
{
    RunTotals totals;
    SwitchStats switches;
    /** Interval transitions that changed phase. */
    std::uint64_t phaseChanges = 0;
    /** Phase changes the predictor failed to anticipate. */
    std::uint64_t unanticipatedChanges = 0;
    /** Reactive switches suppressed by the run-length gate. */
    std::uint64_t lengthGateSkips = 0;
    /** Per-interval active configuration index. */
    std::vector<std::size_t> activeConfig;
    /** The policy's final best configuration per phase. */
    std::map<PhaseId, std::size_t> bestPerPhase;
};

/**
 * Runs the adaptation loop.
 */
class AdaptController
{
  public:
    AdaptController(const ConfigLattice &lattice,
                    const ControllerOptions &options = {});

    /**
     * Replays the run. @p profiles holds one profile per lattice
     * point (same workload, identical interval grid — fatal
     * otherwise); @p phases is the per-interval phase-ID stream
     * (classified once on the big configuration's profile, the
     * paper's observation that code signatures survive hardware
     * reconfiguration).
     */
    ControllerResult run(
        const std::vector<trace::IntervalProfile> &profiles,
        const std::vector<PhaseId> &phases) const;

    const ControllerOptions &options() const { return opts; }

  private:
    const ConfigLattice &lattice;
    ControllerOptions opts;
};

} // namespace tpcp::adapt

#endif // TPCP_ADAPT_CONTROLLER_HH
