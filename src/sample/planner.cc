#include "sample/planner.hh"

#include <algorithm>
#include <cmath>

#include "common/running_stats.hh"

namespace tpcp::sample
{

namespace
{

/** Instruction-weighted CPI mean of the first @p count of
 * @p intervals. */
double
weightedCpi(const trace::IntervalProfile &profile,
            const std::vector<std::size_t> &intervals, std::size_t count)
{
    double cycles = 0.0, insts = 0.0;
    for (std::size_t j = 0; j < count; ++j) {
        const trace::IntervalRecord &rec =
            profile.interval(intervals[j]);
        double w = static_cast<double>(rec.insts);
        cycles += rec.cpi * w;
        insts += w;
    }
    return insts > 0.0 ? cycles / insts : 0.0;
}

} // namespace

Plan
planBudget(const SelectorContext &ctx, std::size_t budget)
{
    return planBudget(ctx, buildStrata(ctx.profile, ctx.phases), budget);
}

Plan
planBudget(const SelectorContext &ctx, const Strata &strata,
           std::size_t budget)
{
    Plan plan;
    plan.budget = budget;
    plan.allocations.resize(strata.order.size());
    for (std::size_t h = 0; h < strata.order.size(); ++h) {
        PhaseAllocation &a = plan.allocations[h];
        a.phase = strata.order[h];
        a.population = strata.members[h].size();
        a.insts = strata.insts[h];
    }

    // Stage 1: pilot coverage. One sample for each phase in
    // descending instruction order (so a tiny budget covers the
    // phases that matter most), then a second per phase while the
    // budget lasts — two pilot samples are the minimum that yields a
    // variance estimate for Neyman allocation.
    std::vector<std::size_t> by_insts(plan.allocations.size());
    for (std::size_t i = 0; i < by_insts.size(); ++i)
        by_insts[i] = i;
    std::stable_sort(by_insts.begin(), by_insts.end(),
                     [&](std::size_t a, std::size_t b) {
                         return plan.allocations[a].insts >
                                plan.allocations[b].insts;
                     });
    std::size_t left = budget;
    for (unsigned round = 0; round < 2 && left > 0; ++round) {
        for (std::size_t i : by_insts) {
            if (left == 0)
                break;
            PhaseAllocation &a = plan.allocations[i];
            if (a.pilot < std::min<std::size_t>(round + 1,
                                                a.population)) {
                ++a.pilot;
                --left;
            }
        }
    }

    // Measure the pilot: per-phase CPI spread and the pilot-only
    // whole-program estimate. Each reached phase's sampling order is
    // kept; its first `samples` entries become the picks.
    RowMatrix rows = signatureRows(ctx);
    RunningStats pooled;
    double pilot_cycles = 0.0;
    InstCount pilot_insts = 0;
    for (std::size_t h = 0; h < plan.allocations.size(); ++h) {
        PhaseAllocation &a = plan.allocations[h];
        a.samples = a.pilot;
        if (a.pilot == 0)
            continue;
        a.picks = phasePermutation(strata.members[h], rows);
        RunningStats st;
        for (std::size_t j = 0; j < a.pilot; ++j)
            st.push(ctx.profile.interval(a.picks[j]).cpi);
        for (std::size_t j = 0; j < a.pilot; ++j)
            pooled.push(ctx.profile.interval(a.picks[j]).cpi);
        a.pilotStddev = st.stddev();
        pilot_cycles += weightedCpi(ctx.profile, a.picks, a.pilot) *
                        static_cast<double>(a.insts);
        pilot_insts += a.insts;
    }
    // Phases the pilot could not reach are extrapolated from the
    // pooled pilot mean, both here and in the estimator.
    double uncovered =
        static_cast<double>(strata.totalInsts - pilot_insts);
    plan.pilotCpi =
        strata.totalInsts > 0
            ? (pilot_cycles + pooled.mean() * uncovered) /
                  static_cast<double>(strata.totalInsts)
            : 0.0;

    // Stage 2: spend the remaining budget where it reduces variance
    // most. Adding a sample to phase h shrinks its SE^2 term by
    // (W_h * s_h)^2 / (n_h * (n_h + 1)) — repeatedly granting the
    // largest reduction converges to Neyman allocation without
    // fractional-apportionment corner cases.
    bool any_spread = false;
    for (const PhaseAllocation &a : plan.allocations)
        any_spread |= (a.pilot > 0 && a.pilotStddev > 0.0);
    while (left > 0) {
        // Start below zero so zero-variance phases still absorb
        // leftover budget once every noisy phase is saturated.
        double best_gain = -1.0;
        PhaseAllocation *best = nullptr;
        for (PhaseAllocation &a : plan.allocations) {
            if (a.pilot == 0 || a.samples >= a.population)
                continue;
            double w = static_cast<double>(a.insts) *
                       (any_spread
                            ? a.pilotStddev
                            // No phase showed CPI spread in the
                            // pilot; fall back to instruction-
                            // proportional filling.
                            : 1.0);
            double n = static_cast<double>(a.samples);
            double gain = w * w / (n * (n + 1.0));
            if (gain > best_gain) {
                best_gain = gain;
                best = &a;
            }
        }
        if (!best)
            break; // every eligible phase is fully sampled
        ++best->samples;
        --left;
    }

    // Predicted standard error of the final stratified estimate:
    // sum_h (W_h/W)^2 * s_h^2 / n_h * (1 - n_h/N_h), with the
    // pooled pilot variance standing in for unreachable phases.
    double se2 = 0.0;
    double total = static_cast<double>(strata.totalInsts);
    for (const PhaseAllocation &a : plan.allocations) {
        double share = static_cast<double>(a.insts) / total;
        if (a.samples == 0) {
            se2 += share * share * pooled.variance();
            continue;
        }
        double n = static_cast<double>(a.samples);
        double fpc =
            1.0 - n / static_cast<double>(a.population);
        se2 += share * share * a.pilotStddev * a.pilotStddev / n *
               std::max(fpc, 0.0);
    }
    plan.predictedSe = std::sqrt(se2);
    plan.predictedRelError =
        plan.pilotCpi > 0.0
            ? 1.96 * plan.predictedSe / plan.pilotCpi
            : 0.0;
    for (PhaseAllocation &a : plan.allocations) {
        a.picks.resize(a.samples);
        plan.planned += a.samples;
    }
    return plan;
}

Selection
realizePlan(const Plan &plan)
{
    std::vector<std::size_t> picks;
    picks.reserve(plan.planned);
    for (const PhaseAllocation &a : plan.allocations)
        picks.insert(picks.end(), a.picks.begin(), a.picks.end());
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()),
                picks.end());
    return Selection{std::move(picks)};
}

} // namespace tpcp::sample
