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
sqDist(const double *a, const double *b, std::size_t dims)
{
    double d = 0.0;
    for (std::size_t i = 0; i < dims; ++i) {
        double delta = a[i] - b[i];
        d += delta * delta;
    }
    return d;
}

/**
 * Each row's nearest centroid so far (the first on ties) with its
 * squared distance, and the squared distance to the second nearest.
 */
struct Nearest
{
    explicit Nearest(std::size_t n)
        : index(n, 0), best(n, std::numeric_limits<double>::max()),
          second(n, std::numeric_limits<double>::max())
    {
    }

    std::vector<std::uint32_t> index;
    std::vector<double> best;
    std::vector<double> second;
};

/**
 * The k-means++ distance pass: folds centroid @p c, the newest, into
 * every row's @p near and returns the sum of the nearest squared
 * distances. Seeding calls it for centroids 0 to k - 2 in order, so
 * after one more call for centroid k - 1, @p near holds exactly what
 * the first Lloyd pass's scan would find. Out of line and cache-line
 * aligned like assignNearest, so its loop sits at the same offset in
 * every build.
 */
__attribute__((noinline, aligned(64))) double
foldCentroid(const RowMatrix &rows, const double *centroid,
             std::uint32_t c, Nearest &near)
{
    double total = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        double d = sqDist(rows[i], centroid, rows.dims());
        if (d < near.best[i]) {
            near.second[i] = near.best[i];
            near.best[i] = d;
            near.index[i] = c;
        } else if (d < near.second[i]) {
            near.second[i] = d;
        }
        total += near.best[i];
    }
    return total;
}

/** k-means++ initial centroid selection; leaves the distances to
 * centroids 0 to k - 2 folded into @p near. */
RowMatrix
seedCentroids(const RowMatrix &rows, unsigned k, Rng &rng, Nearest &near)
{
    const std::size_t n = rows.size(), dims = rows.dims();
    RowMatrix centroids(k, dims);
    auto set = [&](unsigned c, const double *row) {
        std::copy(row, row + dims, centroids[c]);
    };
    set(0, rows[rng.nextBounded(static_cast<std::uint32_t>(n))]);
    for (unsigned c = 1; c < k; ++c) {
        double total = foldCentroid(rows, centroids[c - 1], c - 1, near);
        if (total <= 0.0) {
            // All points coincide with centroids; duplicate one.
            set(c, centroids[c - 1]);
            continue;
        }
        double target = rng.nextDouble() * total;
        double acc = 0.0;
        std::size_t pick = n - 1;
        for (std::size_t i = 0; i < n; ++i) {
            acc += near.best[i];
            if (target < acc) {
                pick = i;
                break;
            }
        }
        set(c, rows[pick]);
    }
    return centroids;
}

/**
 * Hamerly's bounds for one kMeans call. By the triangle inequality,
 * a row whose upper bound is below max(halfGap[a], lower) is nearer
 * its centroid a than any other centroid.
 */
struct Bounds
{
    /** Per row: at least the distance to its centroid. */
    std::vector<double> upper;
    /** Per row: at most the distance to every other centroid. */
    std::vector<double> lower;
    /** Per centroid: half the distance to its nearest other one. */
    std::vector<double> halfGap;
    /** A row is skipped only when upper + margin is below
     * max(halfGap, lower); see skipMargin. */
    double margin = 0.0;
    std::size_t visits = 0;
    std::size_t skips = 0;
};

/**
 * The margin a skip needs. Every distance behind a bound is the
 * square root of a rounded sum of d squares (relative error about
 * (d + 2) 2^-53), and each pass adds or subtracts a rounded drift.
 * All these values are at most about 2M, where M is the norm of the
 * rows' per-column largest magnitudes (a box that holds every row
 * and every centroid), so after T passes a bound is off the exact
 * distance by at most about 2 (T + 1)(d + 6) 2^-53 M, and comparing
 * two squared distances that differ by less than 4 (d + 2) 2^-53 M
 * in distance could go either way. The margin,
 * 1024 (T + 2)(d + 8) 2^-52 M, is some 500 times their sum: a
 * skipped row's computed squared distance to its centroid is
 * strictly below every other computed one, so a scan would have
 * picked it, whatever the index order. Infinite (nothing is
 * skipped) for non-finite rows and outside 1e-100 <= M <= 1e100,
 * where squares could underflow or overflow.
 */
double
skipMargin(const RowMatrix &rows, unsigned max_iterations)
{
    constexpr double never = std::numeric_limits<double>::infinity();
    std::vector<double> top(rows.dims(), 0.0);
    for (std::size_t i = 0; i < rows.size(); ++i)
        for (std::size_t d = 0; d < rows.dims(); ++d) {
            double v = std::fabs(rows[i][d]);
            if (!std::isfinite(v))
                return never;
            top[d] = std::max(top[d], v);
        }
    double m2 = 0.0;
    for (double t : top)
        m2 += t * t;
    double m = std::sqrt(m2);
    if (!(m >= 1e-100 && m <= 1e100))
        return never;
    return 1024.0 * (max_iterations + 2.0) *
           (static_cast<double>(rows.dims()) + 8.0) *
           std::numeric_limits<double>::epsilon() * m;
}

/**
 * The Lloyd assignment pass: gives each row its nearest centroid
 * (the first on ties), marks the clusters a row left or joined in
 * @p moved and returns whether any assignment changed. A row the
 * bounds prove unchanged is skipped; every other row scans all
 * centroids in index order and resets its bounds from the nearest
 * and second-nearest distance. Out of line and cache-line
 * aligned, so the distance loop — k-means' hot spot — sits at the
 * same offset in every build: inlined into kMeans, it moved with
 * whatever code the linker placed before it, and in the layouts
 * where it straddled a cache line k-means ran about a third slower.
 */
__attribute__((noinline, aligned(64))) bool
assignNearest(const RowMatrix &rows, const RowMatrix &centroids,
              Bounds &b, std::vector<std::uint32_t> &assignments,
              std::vector<unsigned char> &moved)
{
    const std::size_t k = centroids.size(), dims = rows.dims();
    bool changed = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::uint32_t a = assignments[i];
        const double bound = std::max(b.halfGap[a], b.lower[i]);
        if (b.upper[i] + b.margin < bound) {
            ++b.skips;
            continue;
        }
        // Tighten the upper bound to the distance itself and test
        // again (pointless when the bound is below the margin).
        if (bound > b.margin) {
            b.upper[i] = std::sqrt(sqDist(rows[i], centroids[a], dims));
            if (b.upper[i] + b.margin < bound) {
                ++b.skips;
                continue;
            }
        }
        std::uint32_t best = 0;
        double best_d = std::numeric_limits<double>::max();
        double second_d = best_d;
        for (std::uint32_t c = 0; c < k; ++c) {
            double d = sqDist(rows[i], centroids[c], dims);
            if (d < best_d) {
                second_d = best_d;
                best_d = d;
                best = c;
            } else if (d < second_d) {
                second_d = d;
            }
        }
        b.upper[i] = std::sqrt(best_d);
        b.lower[i] = std::sqrt(second_d);
        if (a != best) {
            assignments[i] = best;
            moved[a] = moved[best] = 1;
            changed = true;
        }
    }
    b.visits += rows.size();
    return changed;
}

/**
 * Follows the centroids after they moved by @p drift: each upper
 * bound grows by its own centroid's drift, each lower bound shrinks
 * by the largest drift of any other centroid, and the half gaps are
 * measured again.
 */
void
moveBounds(const RowMatrix &centroids, const std::vector<double> &drift,
           const std::vector<std::uint32_t> &assignments, Bounds &b)
{
    const std::size_t k = centroids.size();
    std::size_t far = 0;
    for (std::size_t c = 1; c < k; ++c)
        if (drift[c] > drift[far])
            far = c;
    double others = 0.0; // the largest drift besides far's
    for (std::size_t c = 0; c < k; ++c)
        if (c != far)
            others = std::max(others, drift[c]);
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        std::uint32_t a = assignments[i];
        b.upper[i] += drift[a];
        b.lower[i] -= a == far ? others : drift[far];
    }
    std::fill(b.halfGap.begin(), b.halfGap.end(),
              std::numeric_limits<double>::infinity());
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t o = c + 1; o < k; ++o) {
            double gap = 0.5 * std::sqrt(sqDist(centroids[c], centroids[o],
                                                centroids.dims()));
            b.halfGap[c] = std::min(b.halfGap[c], gap);
            b.halfGap[o] = std::min(b.halfGap[o], gap);
        }
}

} // namespace

KMeansResult
kMeans(const RowMatrix &rows, unsigned k, unsigned max_iterations,
       std::uint64_t seed)
{
    tpcp_assert(!rows.empty(), "k-means needs data");
    tpcp_assert(k >= 1 && k <= rows.size(),
                "k must be in [1, #rows]");
    const std::size_t n = rows.size(), dims = rows.dims();
    Rng rng(seed);
    KMeansResult res;
    Nearest near(n);
    res.centroids = seedCentroids(rows, k, rng, near);
    res.assignments.assign(n, 0);

    Bounds b;
    b.upper.resize(n);
    b.lower.resize(n);
    b.halfGap.assign(k, 0.0);
    b.margin = skipMargin(rows, max_iterations);
    RowMatrix sums(k, dims);
    std::vector<std::size_t> counts(k);
    std::vector<double> drift(k);
    // Every seed moves to its cluster's mean after the first pass.
    std::vector<unsigned char> moved(k, 1);
    for (unsigned iter = 0; iter < max_iterations; ++iter) {
        if (iter == 0) {
            // The first pass: seeding scanned all but the last
            // centroid already.
            foldCentroid(rows, res.centroids[k - 1], k - 1, near);
            res.assignments = near.index;
            for (std::size_t i = 0; i < n; ++i) {
                b.upper[i] = std::sqrt(near.best[i]);
                b.lower[i] = std::sqrt(near.second[i]);
            }
            b.visits += n;
        } else if (!assignNearest(rows, res.centroids, b,
                                  res.assignments, moved)) {
            break;
        }
        // Update. A cluster whose members did not change would sum
        // the same rows in the same order to the same centroid, bit
        // for bit, so only the moved ones are summed.
        for (std::uint32_t c = 0; c < k; ++c)
            if (moved[c]) {
                counts[c] = 0;
                std::fill(sums[c], sums[c] + dims, 0.0);
            }
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t c = res.assignments[i];
            if (!moved[c])
                continue;
            ++counts[c];
            for (std::size_t d = 0; d < dims; ++d)
                sums[c][d] += rows[i][d];
        }
        for (std::uint32_t c = 0; c < k; ++c) {
            drift[c] = 0.0;
            if (!moved[c] || counts[c] == 0)
                continue; // keep the old centroid for empty clusters
            for (std::size_t d = 0; d < dims; ++d)
                sums[c][d] /= static_cast<double>(counts[c]);
            drift[c] = std::sqrt(sqDist(res.centroids[c], sums[c], dims));
            std::copy(sums[c], sums[c] + dims, res.centroids[c]);
        }
        std::fill(moved.begin(), moved.end(), 0);
        moveBounds(res.centroids, drift, res.assignments, b);
    }
    res.visits = b.visits;
    res.skips = b.skips;

    res.inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        res.inertia += sqDist(rows[i], res.centroids[res.assignments[i]],
                              dims);
    return res;
}

RowMatrix
normalizedIntervalVectors(const trace::IntervalProfile &profile,
                          unsigned dims)
{
    std::size_t dim_idx = profile.dimIndex(dims);

    // Frequency-normalize each interval's accumulator vector, as
    // SimPoint normalizes basic-block vectors.
    RowMatrix rows(profile.numIntervals(), dims);
    for (std::size_t i = 0; i < profile.numIntervals(); ++i) {
        const std::uint32_t *raw = profile.counters(i, dim_idx);
        double total = 0.0;
        for (std::size_t d = 0; d < dims; ++d)
            total += static_cast<double>(raw[d]);
        if (total > 0.0)
            for (std::size_t d = 0; d < dims; ++d)
                rows[i][d] = static_cast<double>(raw[d]) / total;
    }
    return rows;
}

OfflineResult
classifyOffline(const trace::IntervalProfile &profile,
                const OfflineConfig &cfg)
{
    tpcp_assert(profile.numIntervals() > 0, "empty profile");
    RowMatrix rows = normalizedIntervalVectors(profile, cfg.dims);

    unsigned max_k = std::min<unsigned>(
        cfg.maxK, static_cast<unsigned>(rows.size()));
    double n = static_cast<double>(rows.size());
    double d = static_cast<double>(rows.dims());

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
