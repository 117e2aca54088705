/**
 * @file
 * Sample selection for phase-guided sampled simulation: given the
 * per-interval phase-ID stream of a workload (from the online
 * hardware classifier or the offline SimPoint-style clustering),
 * choose the handful of intervals that detailed simulation should
 * run, so the rest can be skipped and reconstructed from phase
 * structure (SimPoint, ASPLOS 2002; Ekman's two-phase stratified
 * sampling).
 *
 * Every selector is deterministic: the same profile, phase stream,
 * seed and budget always pick the same intervals, so sampled-run
 * results are byte-identical across --jobs values.
 */

#ifndef TPCP_SAMPLE_SELECTOR_HH
#define TPCP_SAMPLE_SELECTOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/interval_profile.hh"

namespace tpcp::sample
{

/** Where the per-interval phase IDs come from. */
enum class PhaseSource
{
    /** The paper's online hardware classifier (adaptive config). */
    Online,
    /** Offline SimPoint-style k-means clusters (IDs shifted by +1 so
     * no cluster collides with the transition-phase ID). */
    Offline,
};

/** Parses "online" / "offline"; fatal on anything else. */
PhaseSource phaseSourceByName(const std::string &name);

/** Human-readable name of a phase source. */
const char *phaseSourceName(PhaseSource source);

/**
 * Classifies @p profile and returns one phase ID per interval from
 * the requested source.
 */
std::vector<PhaseId> phaseIdStream(
    const trace::IntervalProfile &profile, PhaseSource source);

/** Everything a selector may look at when choosing intervals. */
struct SelectorContext
{
    const trace::IntervalProfile &profile;
    /** Per-interval phase IDs (same length as the profile). */
    const std::vector<PhaseId> &phases;
    /** Seed for the selectors that randomize within strata. */
    std::uint64_t seed = 0;
    /** Accumulator dimensionality for signature-space selectors;
     * falls back to the profile's first recorded config when the
     * profile was not recorded at this one. */
    unsigned dims = 16;
};

/** The intervals chosen for detailed simulation. */
struct Selection
{
    /** Interval indices, sorted ascending, unique. */
    std::vector<std::size_t> intervals;
};

/**
 * Strategy interface: pick at most @p budget intervals to simulate
 * in detail. Implementations must be deterministic functions of the
 * context (profile, phases, seed) and the budget.
 */
class Selector
{
  public:
    virtual ~Selector() = default;

    /** Stable identifier used in tables, JSON and CLI flags. */
    virtual std::string name() const = 0;

    virtual Selection select(const SelectorContext &ctx,
                             std::size_t budget) const = 0;
};

/**
 * Builds a selector by name:
 *   first      - first interval of each phase (budget caps the
 *                phase list, largest-instruction phases kept)
 *   centroid   - per phase, the member nearest the phase's mean
 *                normalized signature vector (SimPoint's
 *                representative-interval rule)
 *   stratified - two-phase stratified sampling: a pilot per phase,
 *                then Neyman (variance-proportional) allocation of
 *                the remaining budget (see sample/planner.hh)
 *   uniform    - evenly spaced intervals, phase-blind (SMARTS-style
 *                systematic sampling baseline)
 *   random     - uniform random without replacement, phase-blind
 *                baseline
 * Fatal (user error) on unknown names.
 */
std::unique_ptr<Selector> makeSelector(const std::string &name);

/** The selector names accepted by makeSelector, in display order. */
const std::vector<std::string> &selectorNames();

} // namespace tpcp::sample

#endif // TPCP_SAMPLE_SELECTOR_HH
