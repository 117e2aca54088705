/**
 * @file
 * Adversarial workload corpus: deliberately hostile interval streams
 * in the spirit of predictor-probing microkernels, built to expose
 * where the signature table, the transition-phase classifier, the
 * change predictors and the fault mitigations break.
 *
 * Unlike the 11 synthetic benchmark models, these streams are
 * generated directly at the accumulator level (the exact input the
 * hardware classifier sees), so each family can construct the
 * precise collision or oscillation it is probing for — and every
 * interval carries a ground-truth behavior label, so classification
 * stability is scored against truth rather than eyeballed.
 *
 * Counter model: each behavior is a mass distribution over
 * max(dims) "leaf" buckets; the vector recorded at dimension d folds
 * leaf l into bucket l % d, mirroring the accumulator table's
 * hash-to-bucket aliasing. Folding is exact (integer masses), so the
 * per-dimension vectors are mutually consistent the way real
 * recordings are.
 *
 * Families (adversarialFamilies() lists them in this order):
 *  - "phase-alias":   pairs of behaviors with *identical* vectors at
 *                     dims <= kAliasDim but distinct vectors (and
 *                     very different CPI) at higher dims — distinct
 *                     program behaviors that collide under the
 *                     signature's bit selection.
 *  - "oscillation":   two behaviors alternating at and below the
 *                     interval granularity (pure 1-interval flips,
 *                     then sub-interval mixtures), starving every
 *                     run-length-based predictor.
 *  - "sig-collision": more distinct behaviors than the signature
 *                     table holds (48 vs the default 32 entries),
 *                     cycling round-robin to force an eviction storm.
 *  - "drift-ramp":    one behavior morphing linearly into another
 *                     across the whole run — no clean phase boundary
 *                     anywhere, stressing threshold adaptivity.
 */

#ifndef TPCP_WORKLOAD_ADVERSARIAL_HH
#define TPCP_WORKLOAD_ADVERSARIAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/interval_profile.hh"

namespace tpcp::workload
{

/** Dimension at or below which "phase-alias" behaviors collide. */
inline constexpr unsigned kAliasDim = 16;

/** Parameters of one adversarial stream. */
struct AdversarialSpec
{
    /** Family name (see adversarialFamilies()). */
    std::string family = "phase-alias";
    /** Generator seed; distinct seeds give distinct variants. */
    std::uint64_t seed = 1;
    /** Intervals to generate. */
    std::size_t intervals = 600;
    /** Instructions per interval. */
    InstCount intervalLen = 100'000;
    /** Accumulator dimension configs to record (must match what the
     * experiments replay; the repository default set). */
    std::vector<unsigned> dims = {8, 16, 32, 64};
};

/** A generated adversarial stream plus its ground truth. */
struct AdversarialTrace
{
    /** The interval records, replayable everywhere a cached profile
     * is (workload name: "adv:<family>/s<seed>"). */
    trace::IntervalProfile profile;
    /** Ground-truth behavior id of every interval (0-based). */
    std::vector<std::uint32_t> truth;
    /** Number of distinct underlying behaviors. */
    std::size_t numBehaviors = 0;
};

/** The family names, in display order. */
const std::vector<std::string> &adversarialFamilies();

/** True when @p family names a known stressor family. */
bool isAdversarialFamily(const std::string &family);

/**
 * Generates one adversarial stream. Deterministic: the same spec
 * always produces byte-identical records (the corpus seed files are
 * regenerable and the corpus ctests check them for drift). Raises
 * tpcp::Error on an unknown family or degenerate spec.
 */
AdversarialTrace makeAdversarial(const AdversarialSpec &spec);

} // namespace tpcp::workload

#endif // TPCP_WORKLOAD_ADVERSARIAL_HH
