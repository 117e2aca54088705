/**
 * @file
 * Whole-program metric estimation from a sampled subset of
 * intervals: the payoff of phase classification. Intervals within a
 * phase behave alike, so the phase-ID stream partitions the run into
 * strata; detailed-simulating a few intervals per stratum and
 * weighting each stratum by its instruction share reconstructs the
 * whole-program CPI — with an error we can measure exactly, because
 * the profile stores every interval's true CPI.
 *
 * Two error bars are produced:
 *   - the analytic stratified-sampling standard error
 *     (sum of per-stratum variance/n terms, finite-population
 *     corrected), and
 *   - a delete-one jackknife standard error, which needs no
 *     distributional assumptions and degrades gracefully when
 *     strata hold a single sample.
 */

#ifndef TPCP_SAMPLE_ESTIMATOR_HH
#define TPCP_SAMPLE_ESTIMATOR_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"
#include "sample/selector.hh"
#include "sample/strata.hh"
#include "trace/interval_profile.hh"

namespace tpcp::sample
{

/** A whole-program CPI estimate with its error accounting. */
struct Estimate
{
    /** Exact whole-program CPI from the full profile (ground
     * truth; the quantity a real sampled simulator cannot see). */
    double trueCpi = 0.0;
    /** Stratified estimate from the sampled intervals only. */
    double estimatedCpi = 0.0;
    /** Analytic stratified-sampling standard error. */
    double standardError = 0.0;
    /** Delete-one jackknife standard error. */
    double jackknifeSe = 0.0;
    /** 95% confidence interval (jackknife when >= 2 samples,
     * analytic otherwise). */
    double ciLow = 0.0;
    double ciHigh = 0.0;
    /** Intervals detailed-simulated / total intervals. */
    std::size_t sampled = 0;
    std::size_t totalIntervals = 0;
    /** Strata (distinct phase IDs) total and with >= 1 sample. */
    std::size_t phasesTotal = 0;
    std::size_t phasesCovered = 0;

    /** |estimated - true| / true (0 when true CPI is 0). */
    double relError() const;

    /** Fraction of intervals detailed-simulated. */
    double sampledFraction() const;

    /** Detailed-simulation speedup equivalent: total intervals per
     * simulated interval. */
    double speedupEquivalent() const;
};

/**
 * Estimates whole-program CPI from the intervals in @p selection,
 * stratified by @p strata (buildStrata of the profile and its phase
 * stream). Strata with no sampled member are
 * extrapolated from the pooled (instruction-weighted) sample mean.
 * The selection must be non-empty.
 */
Estimate estimateCpi(const trace::IntervalProfile &profile,
                     const Strata &strata, const Selection &selection);

} // namespace tpcp::sample

#endif // TPCP_SAMPLE_ESTIMATOR_HH
