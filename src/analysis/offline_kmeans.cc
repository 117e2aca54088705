#include "analysis/offline_kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"

namespace tpcp::analysis
{

namespace
{

double
sqDist(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double delta = a[i] - b[i];
        d += delta * delta;
    }
    return d;
}

/** k-means++ initial centroid selection. */
std::vector<std::vector<double>>
seedCentroids(const std::vector<std::vector<double>> &rows,
              unsigned k, Rng &rng)
{
    std::vector<std::vector<double>> centroids;
    centroids.push_back(
        rows[rng.nextBounded(static_cast<std::uint32_t>(
            rows.size()))]);
    std::vector<double> dist(rows.size(),
                             std::numeric_limits<double>::max());
    while (centroids.size() < k) {
        double total = 0.0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            dist[i] = std::min(dist[i],
                               sqDist(rows[i], centroids.back()));
            total += dist[i];
        }
        if (total <= 0.0) {
            // All points coincide with centroids; duplicate one.
            centroids.push_back(centroids.back());
            continue;
        }
        double target = rng.nextDouble() * total;
        double acc = 0.0;
        std::size_t pick = rows.size() - 1;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            acc += dist[i];
            if (target < acc) {
                pick = i;
                break;
            }
        }
        centroids.push_back(rows[pick]);
    }
    return centroids;
}

/**
 * Assigns each row its nearest centroid (the first on ties) and
 * returns whether any assignment changed. Out of line and cache-line
 * aligned, so the distance loop — k-means' hot spot — sits at the
 * same offset in every build: inlined into kMeans, it moved with
 * whatever code the linker placed before it, and in the layouts
 * where it straddled a cache line k-means ran about a third slower.
 */
__attribute__((noinline, aligned(64))) bool
assignNearest(const std::vector<std::vector<double>> &rows,
              const std::vector<std::vector<double>> &centroids,
              unsigned k, std::vector<std::uint32_t> &assignments)
{
    bool changed = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::uint32_t best = 0;
        double best_d = std::numeric_limits<double>::max();
        for (std::uint32_t c = 0; c < k; ++c) {
            double d = sqDist(rows[i], centroids[c]);
            if (d < best_d) {
                best_d = d;
                best = c;
            }
        }
        if (assignments[i] != best) {
            assignments[i] = best;
            changed = true;
        }
    }
    return changed;
}

} // namespace

KMeansResult
kMeans(const std::vector<std::vector<double>> &rows, unsigned k,
       unsigned max_iterations, std::uint64_t seed)
{
    tpcp_assert(!rows.empty(), "k-means needs data");
    tpcp_assert(k >= 1 && k <= rows.size(),
                "k must be in [1, #rows]");
    Rng rng(seed);
    KMeansResult res;
    res.centroids = seedCentroids(rows, k, rng);
    res.assignments.assign(rows.size(), 0);
    std::size_t dims = rows[0].size();

    for (unsigned iter = 0; iter < max_iterations; ++iter) {
        const bool changed =
            assignNearest(rows, res.centroids, k, res.assignments);
        if (!changed && iter > 0)
            break;
        // Update.
        std::vector<std::vector<double>> sums(
            k, std::vector<double>(dims, 0.0));
        std::vector<std::size_t> counts(k, 0);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::uint32_t c = res.assignments[i];
            ++counts[c];
            for (std::size_t d = 0; d < dims; ++d)
                sums[c][d] += rows[i][d];
        }
        for (std::uint32_t c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue; // keep the old centroid for empty clusters
            for (std::size_t d = 0; d < dims; ++d)
                res.centroids[c][d] =
                    sums[c][d] / static_cast<double>(counts[c]);
        }
    }

    res.inertia = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i)
        res.inertia +=
            sqDist(rows[i], res.centroids[res.assignments[i]]);
    return res;
}

std::vector<std::vector<double>>
normalizedIntervalVectors(const trace::IntervalProfile &profile,
                          unsigned dims)
{
    std::size_t dim_idx = profile.dimIndex(dims);

    // Frequency-normalize each interval's accumulator vector, as
    // SimPoint normalizes basic-block vectors.
    std::vector<std::vector<double>> rows;
    rows.reserve(profile.numIntervals());
    for (std::size_t i = 0; i < profile.numIntervals(); ++i) {
        const std::uint32_t *raw = profile.counters(i, dim_idx);
        double total = 0.0;
        for (std::size_t d = 0; d < dims; ++d)
            total += static_cast<double>(raw[d]);
        std::vector<double> row(dims);
        for (std::size_t d = 0; d < dims; ++d)
            row[d] = total > 0.0
                         ? static_cast<double>(raw[d]) / total
                         : 0.0;
        rows.push_back(std::move(row));
    }
    return rows;
}

OfflineResult
classifyOffline(const trace::IntervalProfile &profile,
                const OfflineConfig &cfg)
{
    tpcp_assert(profile.numIntervals() > 0, "empty profile");
    std::vector<std::vector<double>> rows =
        normalizedIntervalVectors(profile, cfg.dims);

    unsigned max_k = std::min<unsigned>(
        cfg.maxK, static_cast<unsigned>(rows.size()));
    double n = static_cast<double>(rows.size());
    double d = static_cast<double>(rows[0].size());

    // Scree selection: the smallest k explaining the configured
    // fraction of total variance, else max_k; near-identical intervals
    // (variance per interval below 1e-9) keep k = 1. Restart seeds
    // come from one stream in k order, so no candidate depends on a
    // later one and the sweep can stop at the chosen k.
    Rng rng(cfg.seed);
    KMeansResult best;
    double total_variance = 0.0;
    unsigned k = 1;
    for (;; ++k) {
        double best_inertia = std::numeric_limits<double>::max();
        for (unsigned r = 0; r < cfg.restarts; ++r) {
            KMeansResult km =
                kMeans(rows, k, cfg.maxIterations, rng.next64());
            if (km.inertia < best_inertia) {
                best_inertia = km.inertia;
                best = std::move(km);
            }
        }
        if (k == 1)
            total_variance = best.inertia;
        bool degenerate = total_variance / n < 1e-9;
        bool explained = best.inertia <= (1.0 - cfg.explainedVariance) *
                                             total_variance;
        if (degenerate || explained || k == max_k)
            break;
    }

    // x-means BIC, reported only: pooled variance with a degrees-of-
    // freedom correction so the score peaks near the true cluster
    // count instead of growing monotonically with k.
    double df = std::max(n - static_cast<double>(k), 1.0);
    double variance = std::max(best.inertia / (d * df), 1e-9);
    double log_likelihood =
        -0.5 * n * d * std::log(2.0 * M_PI * variance) - 0.5 * d * df;
    double params = static_cast<double>(k) * (d + 1.0);

    OfflineResult out;
    out.assignments = std::move(best.assignments);
    out.k = k;
    out.inertia = best.inertia;
    out.score = log_likelihood - 0.5 * params * std::log(n);
    return out;
}

} // namespace tpcp::analysis
