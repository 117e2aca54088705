#include "sample/report.hh"

#include "common/bitops.hh"
#include "common/json.hh"
#include "sample/estimator.hh"
#include "sample/planner.hh"

namespace tpcp::sample
{

double
SampleReport::sampledFraction() const
{
    if (totalIntervals == 0)
        return 0.0;
    return static_cast<double>(sampled) /
           static_cast<double>(totalIntervals);
}

double
SampleReport::speedupEquivalent() const
{
    if (sampled == 0)
        return 0.0;
    return static_cast<double>(totalIntervals) /
           static_cast<double>(sampled);
}

std::string
toJson(const SampleReport &r)
{
    std::string out = "{";
    appendField(out, "workload", r.workload);
    appendField(out, "selector", r.selector);
    appendField(out, "phase_source", r.phaseSource);
    appendField(out, "budget", r.budget);
    appendField(out, "sampled", r.sampled);
    appendField(out, "total_intervals", r.totalIntervals);
    appendField(out, "phases_total", r.phasesTotal);
    appendField(out, "phases_covered", r.phasesCovered);
    appendField(out, "true_cpi", r.trueCpi);
    appendField(out, "estimated_cpi", r.estimatedCpi);
    appendField(out, "rel_error", r.relError);
    appendField(out, "standard_error", r.standardError);
    appendField(out, "jackknife_se", r.jackknifeSe);
    appendField(out, "ci_low", r.ciLow);
    appendField(out, "ci_high", r.ciHigh);
    appendField(out, "predicted_rel_error", r.predictedRelError);
    appendField(out, "sampled_fraction", r.sampledFraction());
    appendField(out, "speedup_equivalent", r.speedupEquivalent(),
                true);
    out += "}";
    return out;
}

std::string
toJson(const std::vector<SampleReport> &reports)
{
    return toJsonLines(reports);
}

SampleReport
runSampledSimulation(const trace::IntervalProfile &profile,
                     const std::string &selector,
                     PhaseSource source, std::size_t budget)
{
    std::vector<PhaseId> phases = phaseIdStream(profile, source);
    return runSampledSimulation(profile, phases, selector, source,
                                budget);
}

SampleReport
runSampledSimulation(const trace::IntervalProfile &profile,
                     const std::vector<PhaseId> &phases,
                     const std::string &selector,
                     PhaseSource source, std::size_t budget)
{
    SelectorContext ctx{profile, phases,
                        fnv1a64(profile.workload()), 16};
    std::unique_ptr<Selector> sel = makeSelector(selector);

    SampleReport r;
    r.workload = profile.workload();
    r.selector = sel->name();
    r.phaseSource = phaseSourceName(source);
    r.budget = budget;
    Strata strata = buildStrata(profile, phases);
    Selection selection;
    if (selector == "stratified") {
        // StratifiedSelector::select, planning once: the plan that
        // predicts the error is the one realized.
        Plan plan = planBudget(ctx, strata, budget);
        r.predictedRelError = plan.predictedRelError;
        selection = realizePlan(plan);
    } else {
        selection = sel->select(ctx, budget);
    }
    Estimate est = estimateCpi(profile, strata, selection);
    r.sampled = est.sampled;
    r.totalIntervals = est.totalIntervals;
    r.phasesTotal = est.phasesTotal;
    r.phasesCovered = est.phasesCovered;
    r.trueCpi = est.trueCpi;
    r.estimatedCpi = est.estimatedCpi;
    r.relError = est.relError();
    r.standardError = est.standardError;
    r.jackknifeSe = est.jackknifeSe;
    r.ciLow = est.ciLow;
    r.ciHigh = est.ciHigh;
    return r;
}

} // namespace tpcp::sample
