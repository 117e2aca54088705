#include "sample/estimator.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/running_stats.hh"

namespace tpcp::sample
{

double
Estimate::relError() const
{
    if (trueCpi == 0.0)
        return 0.0;
    return std::abs(estimatedCpi - trueCpi) / trueCpi;
}

double
Estimate::sampledFraction() const
{
    if (totalIntervals == 0)
        return 0.0;
    return static_cast<double>(sampled) /
           static_cast<double>(totalIntervals);
}

double
Estimate::speedupEquivalent() const
{
    if (sampled == 0)
        return 0.0;
    return static_cast<double>(totalIntervals) /
           static_cast<double>(sampled);
}

namespace
{

/** Per-stratum sample tallies used by the estimate and its
 * jackknife replicates. */
struct StratumSample
{
    /** Instruction weight of the whole stratum. */
    double weight = 0.0;
    /** Population size (intervals in the stratum). */
    std::size_t population = 0;
    /** Sampled members: sum of cpi * insts and sum of insts. */
    double cycles = 0.0;
    double insts = 0.0;
    std::size_t n = 0;
    /** Unweighted CPI spread of the sampled members. */
    RunningStats spread;
};

/**
 * The stratified estimator core: covered strata contribute their
 * sampled mean, uncovered strata the pooled mean. @p skip_cycles /
 * @p skip_insts / @p skip_stratum remove one sample (for jackknife
 * replicates); pass zeros and npos for the full estimate.
 */
double
combine(const std::vector<StratumSample> &strata, double total_weight,
        std::size_t skip_stratum, double skip_cycles,
        double skip_insts)
{
    double pooled_cycles = 0.0, pooled_insts = 0.0;
    for (std::size_t h = 0; h < strata.size(); ++h) {
        pooled_cycles += strata[h].cycles;
        pooled_insts += strata[h].insts;
        if (h == skip_stratum) {
            pooled_cycles -= skip_cycles;
            pooled_insts -= skip_insts;
        }
    }
    double pooled_mean =
        pooled_insts > 0.0 ? pooled_cycles / pooled_insts : 0.0;

    double acc = 0.0;
    for (std::size_t h = 0; h < strata.size(); ++h) {
        const StratumSample &s = strata[h];
        double cycles = s.cycles, insts = s.insts;
        if (h == skip_stratum) {
            cycles -= skip_cycles;
            insts -= skip_insts;
        }
        double mean = insts > 0.0 ? cycles / insts : pooled_mean;
        acc += s.weight * mean;
    }
    return total_weight > 0.0 ? acc / total_weight : 0.0;
}

} // namespace

Estimate
estimateCpi(const trace::IntervalProfile &profile, const Strata &strata,
            const Selection &selection)
{
    tpcp_assert(!selection.intervals.empty(),
                "cannot estimate from an empty selection");

    Estimate est;
    est.totalIntervals = profile.numIntervals();
    est.sampled = selection.intervals.size();
    est.phasesTotal = strata.order.size();

    // Ground truth over the full profile.
    double true_cycles = 0.0, true_insts = 0.0;
    for (const trace::IntervalRecord &rec : profile.intervals()) {
        true_cycles += rec.cpi * static_cast<double>(rec.insts);
        true_insts += static_cast<double>(rec.insts);
    }
    est.trueCpi = true_insts > 0.0 ? true_cycles / true_insts : 0.0;

    // Fold the sampled intervals into their strata.
    std::vector<StratumSample> tallies(strata.order.size());
    for (std::size_t h = 0; h < strata.order.size(); ++h) {
        tallies[h].weight = static_cast<double>(strata.insts[h]);
        tallies[h].population = strata.members[h].size();
    }
    // (stratum, cpi*insts, insts) per sample, for the jackknife.
    std::vector<std::size_t> sample_stratum;
    std::vector<double> sample_cycles, sample_insts;
    for (std::size_t i : selection.intervals) {
        tpcp_assert(i < profile.numIntervals(),
                    "selection index out of range");
        const trace::IntervalRecord &rec = profile.interval(i);
        std::size_t h = strata.stratumOf[i];
        double w = static_cast<double>(rec.insts);
        tallies[h].cycles += rec.cpi * w;
        tallies[h].insts += w;
        ++tallies[h].n;
        tallies[h].spread.push(rec.cpi);
        sample_stratum.push_back(h);
        sample_cycles.push_back(rec.cpi * w);
        sample_insts.push_back(w);
    }
    for (const StratumSample &s : tallies)
        if (s.n > 0)
            ++est.phasesCovered;

    double total_weight = static_cast<double>(strata.totalInsts);
    constexpr std::size_t no_skip = ~std::size_t{0};
    est.estimatedCpi = combine(tallies, total_weight, no_skip, 0, 0);

    // Analytic stratified SE. Uncovered strata fall back to the
    // pooled sample variance (they are estimated by the pooled
    // mean, so its spread is the honest uncertainty stand-in).
    RunningStats pooled;
    for (std::size_t j = 0; j < sample_stratum.size(); ++j)
        pooled.push(sample_insts[j] > 0.0
                        ? sample_cycles[j] / sample_insts[j]
                        : 0.0);
    double se2 = 0.0;
    for (const StratumSample &s : tallies) {
        double share = total_weight > 0.0
                           ? s.weight / total_weight
                           : 0.0;
        if (s.n == 0) {
            se2 += share * share * pooled.variance();
            continue;
        }
        double n = static_cast<double>(s.n);
        double fpc =
            1.0 - n / static_cast<double>(s.population);
        se2 += share * share * s.spread.variance() / n *
               std::max(fpc, 0.0);
    }
    est.standardError = std::sqrt(se2);

    // Delete-one jackknife over the samples.
    std::size_t n = sample_stratum.size();
    if (n >= 2) {
        std::vector<double> reps(n);
        double rep_mean = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            reps[j] = combine(tallies, total_weight,
                              sample_stratum[j], sample_cycles[j],
                              sample_insts[j]);
            rep_mean += reps[j];
        }
        rep_mean /= static_cast<double>(n);
        double ss = 0.0;
        for (double r : reps)
            ss += (r - rep_mean) * (r - rep_mean);
        est.jackknifeSe = std::sqrt(
            ss * static_cast<double>(n - 1) /
            static_cast<double>(n));
    }

    double se = n >= 2 ? est.jackknifeSe : est.standardError;
    est.ciLow = est.estimatedCpi - 1.96 * se;
    est.ciHigh = est.estimatedCpi + 1.96 * se;
    return est;
}

} // namespace tpcp::sample
