/**
 * @file
 * Shared stratum bookkeeping for the sampling subsystem: groups a
 * profile's intervals by phase ID (the strata of stratified
 * sampling) and derives the deterministic within-phase sampling
 * permutations used by both the planner and the selectors.
 */

#ifndef TPCP_SAMPLE_STRATA_HH
#define TPCP_SAMPLE_STRATA_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/row_matrix.hh"
#include "common/types.hh"
#include "sample/selector.hh"

namespace tpcp::sample
{

/** The strata of a phase stream: stratum h is phase order[h], the
 * h-th distinct phase in first-appearance order, with its member
 * intervals (ascending) and instruction total. */
struct Strata
{
    std::vector<PhaseId> order;
    std::vector<std::vector<std::size_t>> members;
    std::vector<InstCount> insts;
    /** The stratum of each interval. */
    std::vector<std::size_t> stratumOf;
    InstCount totalInsts = 0;
};

inline Strata
buildStrata(const trace::IntervalProfile &profile,
            const std::vector<PhaseId> &phases)
{
    tpcp_assert(phases.size() == profile.numIntervals(),
                "phase stream / profile length mismatch");
    Strata s;
    s.stratumOf.reserve(phases.size());
    std::unordered_map<PhaseId, std::size_t> index;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        auto [it, fresh] = index.try_emplace(phases[i], s.order.size());
        if (fresh) {
            s.order.push_back(phases[i]);
            s.members.emplace_back();
            s.insts.push_back(0);
        }
        std::size_t h = it->second;
        s.members[h].push_back(i);
        s.stratumOf.push_back(h);
        InstCount insts = profile.interval(i).insts;
        s.insts[h] += insts;
        s.totalInsts += insts;
    }
    return s;
}

/**
 * The member whose normalized signature vector is nearest the mean
 * vector of @p members — SimPoint's rule for the representative
 * interval of a cluster. @p rows holds one normalized vector per
 * *interval* (indexed by interval, not by member rank), as produced
 * by analysis::normalizedIntervalVectors.
 */
inline std::size_t
centroidNearest(const std::vector<std::size_t> &members,
                const RowMatrix &rows)
{
    tpcp_assert(!members.empty(), "centroid of an empty phase");
    std::vector<double> centroid(rows.dims(), 0.0);
    for (std::size_t m : members)
        for (std::size_t d = 0; d < centroid.size(); ++d)
            centroid[d] += rows[m][d];
    for (double &v : centroid)
        v /= static_cast<double>(members.size());
    std::size_t best = members.front();
    double best_d = std::numeric_limits<double>::max();
    for (std::size_t m : members) {
        double d = 0.0;
        for (std::size_t i = 0; i < centroid.size(); ++i) {
            double delta = rows[m][i] - centroid[i];
            d += delta * delta;
        }
        if (d < best_d) {
            best_d = d;
            best = m;
        }
    }
    return best;
}

/**
 * The within-phase sampling order: the centroid-nearest member
 * first (the best single representative, by SimPoint's rule), then
 * the remaining members (which are in execution order) by
 * bit-reversed rank. Every prefix of the sequence is the
 * centroid representative plus a near-evenly-spaced spread of the
 * phase's lifetime, so (a) the pilot sample is a prefix of any
 * larger sample — extending a phase's allocation never discards
 * already-simulated intervals — and (b) refinement behaves like
 * systematic sampling, which beats random draws when behavior
 * drifts within a phase (the transition stratum especially). No
 * randomness is involved; the phase-guided pipeline is a pure
 * function of the profile and phase stream.
 */
inline std::vector<std::size_t>
phasePermutation(const std::vector<std::size_t> &members,
                 const RowMatrix &rows)
{
    std::size_t representative = centroidNearest(members, rows);
    std::size_t n = members.size();
    unsigned bits = 0;
    while ((std::size_t{1} << bits) < n)
        ++bits;
    std::vector<std::size_t> perm;
    perm.reserve(n);
    perm.push_back(representative);
    for (std::size_t v = 0; v < (std::size_t{1} << bits); ++v) {
        std::size_t r = 0;
        for (unsigned b = 0; b < bits; ++b)
            if (v & (std::size_t{1} << b))
                r |= std::size_t{1} << (bits - 1 - b);
        if (r < n && members[r] != representative)
            perm.push_back(members[r]);
    }
    return perm;
}

/** The signature rows phasePermutation needs, at the context's
 * dimensionality (falling back to the profile's first recorded
 * config). Declared here, defined in selector.cc, so strata.hh
 * does not pull the analysis headers into every includer. */
RowMatrix signatureRows(const SelectorContext &ctx);

} // namespace tpcp::sample

#endif // TPCP_SAMPLE_STRATA_HH
