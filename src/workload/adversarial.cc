#include "workload/adversarial.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/rng.hh"
#include "common/status.hh"

namespace tpcp::workload
{

namespace
{

/** Leaf-bucket count; dims fold into this (see file header). */
constexpr unsigned kLeaves = 64;

/** One underlying program behavior: an integer mass distribution
 * over the leaf buckets (summing exactly to the per-interval
 * accumulator total) plus its characteristic CPI. */
struct Behavior
{
    std::vector<std::uint64_t> mass; // kLeaves entries
    double cpi = 1.0;
};

/**
 * Apportions @p total units over @p weights proportionally, exactly
 * (cumulative rounding): the result sums to @p total and is a
 * deterministic function of the inputs.
 */
std::vector<std::uint64_t>
apportion(const std::vector<double> &weights, std::uint64_t total)
{
    double sum = 0.0;
    for (double w : weights)
        sum += w;
    std::vector<std::uint64_t> out(weights.size(), 0);
    if (sum <= 0.0) {
        if (!out.empty())
            out[0] = total;
        return out;
    }
    double exact = 0.0;
    std::uint64_t assigned = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        exact += weights[i] / sum * static_cast<double>(total);
        std::uint64_t upto = i + 1 == weights.size()
            ? total
            : static_cast<std::uint64_t>(std::llround(
                  std::min(exact, static_cast<double>(total))));
        out[i] = upto - assigned;
        assigned = upto;
    }
    return out;
}

/** A behavior with @p hot dominant leaves and random tail mass. */
Behavior
makeBehavior(Rng &rng, unsigned hot, double cpi,
             std::uint64_t total)
{
    std::vector<double> weights(kLeaves, 0.0);
    // Faint background mass in every leaf so vectors are dense the
    // way real accumulator snapshots are.
    for (unsigned l = 0; l < kLeaves; ++l)
        weights[l] = 0.02 + 0.02 * rng.nextDouble();
    for (unsigned h = 0; h < hot; ++h) {
        unsigned leaf = rng.nextBounded(kLeaves);
        weights[leaf] += 2.0 + 6.0 * rng.nextDouble();
    }
    Behavior b;
    b.mass = apportion(weights, total);
    b.cpi = cpi;
    return b;
}

/** Folds a leaf-mass vector into the @p dim zeroed counters at
 * @p out, the recorded accumulator vector at dimension @p dim (leaf
 * l lands in bucket l % dim). */
void
fold(const std::vector<std::uint64_t> &mass, unsigned dim,
     std::uint32_t *out)
{
    for (unsigned l = 0; l < mass.size(); ++l)
        out[l % dim] += static_cast<std::uint32_t>(mass[l]);
}

/** Blends two behaviors: mass re-apportioned so the integer sum is
 * exact, CPI interpolated. @p t = 0 is @p a, 1 is @p b. */
Behavior
blend(const Behavior &a, const Behavior &b, double t,
      std::uint64_t total)
{
    std::vector<double> weights(kLeaves, 0.0);
    for (unsigned l = 0; l < kLeaves; ++l)
        weights[l] = (1.0 - t) * static_cast<double>(a.mass[l]) +
                     t * static_cast<double>(b.mass[l]);
    Behavior out;
    out.mass = apportion(weights, total);
    out.cpi = (1.0 - t) * a.cpi + t * b.cpi;
    return out;
}

/** Appends one interval built from @p b to @p trace, with a small
 * deterministic CPI jitter so intervals are not bit-identical. */
void
emit(AdversarialTrace &trace, const AdversarialSpec &spec,
     const Behavior &b, std::uint32_t truthId, Rng &rng)
{
    trace::IntervalRecord rec;
    rec.insts = spec.intervalLen;
    rec.accumTotal = spec.intervalLen;
    rec.cpi = std::max(0.05, b.cpi + 0.01 * rng.nextGaussian());
    std::uint32_t *out = trace.profile.append(rec);
    for (unsigned dim : spec.dims) {
        fold(b.mass, dim, out);
        out += dim;
    }
    trace.truth.push_back(truthId);
}

/**
 * "phase-alias": behavior B is behavior A with the mass of leaves l
 * and l + kAliasDim swapped — identical folded vectors at every dim
 * that divides kAliasDim, distinct at larger dims — but a very
 * different CPI. Alternating runs of A and B look like one flat
 * phase to a classifier keyed on <= kAliasDim counters.
 */
void
genPhaseAlias(AdversarialTrace &trace, const AdversarialSpec &spec,
              Rng &rng)
{
    Behavior a = makeBehavior(rng, 6, 0.8, spec.intervalLen);
    Behavior b = a;
    b.cpi = 2.4;
    for (unsigned l = 0; l + kAliasDim < kLeaves; ++l) {
        if (l % (2 * kAliasDim) >= kAliasDim)
            continue; // already swapped as the partner of l - 16
        std::swap(b.mass[l], b.mass[l + kAliasDim]);
    }
    const std::size_t runLen = 40;
    for (std::size_t i = 0; i < spec.intervals; ++i) {
        bool second = (i / runLen) % 2 == 1;
        emit(trace, spec, second ? b : a, second ? 1 : 0, rng);
    }
    trace.numBehaviors = 2;
}

/**
 * "oscillation": two distinct behaviors flipping at the interval
 * granularity (first third), oscillating *below* it — recorded as
 * blended vectors with a cycling duty factor (middle third) — and
 * flipping every other interval (final third). Run lengths this
 * short defeat any last-value or run-length predictor.
 */
void
genOscillation(AdversarialTrace &trace, const AdversarialSpec &spec,
               Rng &rng)
{
    Behavior a = makeBehavior(rng, 5, 0.7, spec.intervalLen);
    Behavior b = makeBehavior(rng, 5, 2.0, spec.intervalLen);
    std::size_t third = std::max<std::size_t>(1, spec.intervals / 3);
    for (std::size_t i = 0; i < spec.intervals; ++i) {
        if (i < third) {
            bool second = i % 2 == 1;
            emit(trace, spec, second ? b : a, second ? 1 : 0, rng);
        } else if (i < 2 * third) {
            // Sub-interval oscillation: the interval straddles both
            // behaviors, so the snapshot is a mixture whose duty
            // factor itself oscillates.
            double t = 0.5 + 0.4 * ((i % 5) / 4.0 * 2.0 - 1.0);
            emit(trace, spec, blend(a, b, t, spec.intervalLen),
                 t >= 0.5 ? 1 : 0, rng);
        } else {
            bool second = (i / 2) % 2 == 1;
            emit(trace, spec, second ? b : a, second ? 1 : 0, rng);
        }
    }
    trace.numBehaviors = 2;
}

/**
 * "sig-collision": more distinct behaviors (48) than the default
 * signature table holds (32 entries), revisited round-robin in short
 * runs — every revisit finds its entry evicted, forcing the table
 * into a permanent eviction storm.
 */
void
genSigCollision(AdversarialTrace &trace, const AdversarialSpec &spec,
                Rng &rng)
{
    constexpr std::size_t kBehaviors = 48;
    std::vector<Behavior> behaviors;
    behaviors.reserve(kBehaviors);
    for (std::size_t i = 0; i < kBehaviors; ++i)
        behaviors.push_back(makeBehavior(
            rng, 4, 0.6 + 0.05 * static_cast<double>(i),
            spec.intervalLen));
    const std::size_t runLen = 3;
    for (std::size_t i = 0; i < spec.intervals; ++i) {
        std::size_t id = (i / runLen) % kBehaviors;
        emit(trace, spec, behaviors[id],
             static_cast<std::uint32_t>(id), rng);
    }
    trace.numBehaviors = kBehaviors;
}

/**
 * "drift-ramp": behavior A morphs linearly into behavior B across
 * the entire run. There is no interval where the change happens —
 * every similarity threshold either fragments the ramp into many
 * tiny phases or never notices the drift at all.
 */
void
genDriftRamp(AdversarialTrace &trace, const AdversarialSpec &spec,
             Rng &rng)
{
    Behavior a = makeBehavior(rng, 6, 0.9, spec.intervalLen);
    Behavior b = makeBehavior(rng, 6, 1.9, spec.intervalLen);
    double denom =
        spec.intervals > 1 ? static_cast<double>(spec.intervals - 1)
                           : 1.0;
    for (std::size_t i = 0; i < spec.intervals; ++i) {
        double t = static_cast<double>(i) / denom;
        emit(trace, spec, blend(a, b, t, spec.intervalLen),
             t < 0.5 ? 0 : 1, rng);
    }
    trace.numBehaviors = 2;
}

} // namespace

const std::vector<std::string> &
adversarialFamilies()
{
    static const std::vector<std::string> families = {
        "phase-alias", "oscillation", "sig-collision", "drift-ramp"};
    return families;
}

bool
isAdversarialFamily(const std::string &family)
{
    const auto &f = adversarialFamilies();
    return std::find(f.begin(), f.end(), family) != f.end();
}

AdversarialTrace
makeAdversarial(const AdversarialSpec &spec)
{
    if (!isAdversarialFamily(spec.family))
        tpcp_raise("unknown adversarial family '", spec.family,
                   "' (known: phase-alias, oscillation, "
                   "sig-collision, drift-ramp)");
    if (spec.intervals == 0)
        tpcp_raise("adversarial spec: intervals must be > 0");
    if (spec.intervalLen == 0 || spec.intervalLen > 0xffffffffull)
        tpcp_raise("adversarial spec: intervalLen must be in "
                   "1 .. 2^32-1 (counters are 32-bit)");
    if (spec.dims.empty())
        tpcp_raise("adversarial spec: at least one dimension config "
                   "is required");
    for (unsigned d : spec.dims)
        if (d == 0 || d > 4096)
            tpcp_raise("adversarial spec: dimension ", d,
                       " out of range 1 .. 4096");

    AdversarialTrace trace;
    std::string name =
        "adv:" + spec.family + "/s" + std::to_string(spec.seed);
    trace.profile = trace::IntervalProfile(name, "trace",
                                           spec.intervalLen,
                                           spec.dims);
    trace.truth.reserve(spec.intervals);

    // Seed from family + seed so each family's stream is independent
    // and each seed is a genuinely different variant.
    Rng rng(Rng(std::string_view(spec.family)).next64() ^
                0x9e3779b97f4a7c15ull,
            spec.seed * 2 + 1);

    if (spec.family == "phase-alias")
        genPhaseAlias(trace, spec, rng);
    else if (spec.family == "oscillation")
        genOscillation(trace, spec, rng);
    else if (spec.family == "sig-collision")
        genSigCollision(trace, spec, rng);
    else
        genDriftRamp(trace, spec, rng);

    return trace;
}

} // namespace tpcp::workload
