/**
 * @file
 * Budgeted sample planning: given a target number of detailed
 * intervals N, allocate them across the phases of a workload.
 *
 * The allocation is Ekman-style two-phase stratified sampling
 * ("CPU Simulation Using Two-Phase Stratified Sampling"):
 *
 *   1. A *pilot* of up to 2 intervals per phase is drawn (largest
 *      phases first when the budget cannot cover every phase) and
 *      its per-phase CPI spread measured.
 *   2. The remaining budget is split by Neyman allocation — each
 *      phase gets samples in proportion to (instruction share x
 *      pilot CPI standard deviation), so heterogeneous phases are
 *      simulated more and uniform phases barely at all.
 *
 * The planner predicts the estimate's standard error from the pilot
 * statistics before the full sample is drawn; callers compare it
 * against the achieved error (sample/estimator.hh) to judge how
 * trustworthy a budget is.
 */

#ifndef TPCP_SAMPLE_PLANNER_HH
#define TPCP_SAMPLE_PLANNER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sample/selector.hh"
#include "sample/strata.hh"

namespace tpcp::sample
{

/** Per-phase slice of a sampling plan. */
struct PhaseAllocation
{
    PhaseId phase = transitionPhaseId;
    /** Intervals belonging to this phase. */
    std::size_t population = 0;
    /** Instructions executed in this phase. */
    InstCount insts = 0;
    /** Pilot samples (stage 1). */
    std::size_t pilot = 0;
    /** Total samples after Neyman allocation (>= pilot). */
    std::size_t samples = 0;
    /** CPI standard deviation measured on the pilot (0 when the
     * pilot has fewer than 2 samples). */
    double pilotStddev = 0.0;
    /** The intervals to simulate: the first `samples` entries of
     * the phase's sampling order (see phasePermutation), so the
     * pilot's intervals lead. */
    std::vector<std::size_t> picks;
};

/** A complete budget allocation for one workload. */
struct Plan
{
    /** Per-phase allocations, in phase first-appearance order. */
    std::vector<PhaseAllocation> allocations;
    /** The requested budget. */
    std::size_t budget = 0;
    /** Total samples actually allocated (<= budget). */
    std::size_t planned = 0;
    /** Pilot-based whole-program CPI estimate. */
    double pilotCpi = 0.0;
    /** Predicted standard error of the final estimate under this
     * allocation (stratified-sampling formula, pilot variances). */
    double predictedSe = 0.0;
    /** Predicted 95% relative error: 1.96 * SE / pilot CPI. */
    double predictedRelError = 0.0;
};

/**
 * Allocates @p budget detailed intervals across the phases of
 * ctx.phases. Deterministic for a fixed context.
 */
Plan planBudget(const SelectorContext &ctx, std::size_t budget);

/** Same, over @p strata, which buildStrata made from ctx. */
Plan planBudget(const SelectorContext &ctx, const Strata &strata,
                std::size_t budget);

/**
 * The plan's picks as one selection. Within each phase, samples are
 * a prefix of its deterministic sampling order, so the pilot is
 * always a prefix of the final sample (pilot intervals are never
 * simulated twice).
 */
Selection realizePlan(const Plan &plan);

} // namespace tpcp::sample

#endif // TPCP_SAMPLE_PLANNER_HH
