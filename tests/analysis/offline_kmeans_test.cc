/**
 * @file
 * Unit tests for the offline SimPoint-style k-means classifier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include "analysis/offline_kmeans.hh"
#include "analysis/parallel_runner.hh"
#include "common/rng.hh"

using namespace tpcp;
using namespace tpcp::analysis;

namespace
{

/** The rows of @p values as one matrix. */
RowMatrix
matrixOf(const std::vector<std::vector<double>> &values)
{
    RowMatrix rows(values.size(), values.empty() ? 0 : values[0].size());
    for (std::size_t i = 0; i < values.size(); ++i)
        std::copy(values[i].begin(), values[i].end(), rows[i]);
    return rows;
}

/** Three well-separated 2-D blobs of @p per points each, centred at
 * (0, 0), (10, 0) and (0, 10) times @p scale. */
RowMatrix
threeBlobs(std::size_t per, std::uint64_t seed = 1, double scale = 1.0)
{
    Rng rng(seed);
    std::vector<std::vector<double>> rows;
    const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
    for (int c = 0; c < 3; ++c) {
        for (std::size_t i = 0; i < per; ++i) {
            rows.push_back(
                {scale * (centers[c][0] + 0.3 * rng.nextGaussian()),
                 scale * (centers[c][1] + 0.3 * rng.nextGaussian())});
        }
    }
    return matrixOf(rows);
}

/** A profile with @p n intervals cycling through 3 accumulator
 * shapes. */
trace::IntervalProfile
shapedProfile(std::size_t n)
{
    trace::IntervalProfile p("t", "ooo", 1000, {16});
    Rng rng(std::uint64_t{5});
    for (std::size_t i = 0; i < n; ++i) {
        unsigned shape = (i / 10) % 3;
        trace::IntervalRecord rec;
        rec.insts = 1000;
        rec.cpi = 1.0 + shape;
        std::vector<std::uint32_t> raw(16, 0);
        raw[shape * 5 + 1] = 600 + rng.nextBounded(40);
        raw[shape * 5 + 3] = 300 + rng.nextBounded(30);
        rec.accumTotal = raw[shape * 5 + 1] + raw[shape * 5 + 3];
        p.push(rec, raw);
    }
    return p;
}

/**
 * A profile of @p n intervals of one code shape that differ by one
 * count in a million: the variance per interval (~5e-13) is below
 * classifyOffline's 1e-9 degenerate-input floor, while k = 2 would
 * explain all of it.
 */
trace::IntervalProfile
nearConstantProfile(std::size_t n)
{
    trace::IntervalProfile p("t", "ooo", 1000, {16});
    for (std::size_t i = 0; i < n; ++i) {
        trace::IntervalRecord rec;
        rec.insts = 1000;
        rec.cpi = 1.0;
        std::vector<std::uint32_t> raw(16, 0);
        raw[3] = 1000000;
        raw[4] = static_cast<std::uint32_t>(i % 2);
        rec.accumTotal = raw[3] + raw[4];
        p.push(rec, raw);
    }
    return p;
}

/**
 * The brute-force k-means kMeans must equal bit for bit: k-means++
 * seeding, then Lloyd passes that give every row the nearest
 * centroid (first on ties) by scanning all centroids, until no
 * assignment changes after the first pass.
 */
struct ReferenceKMeans
{
    std::vector<std::uint32_t> assignments;
    std::vector<std::vector<double>> centroids;
    double inertia = 0.0;
};

double
referenceSqDist(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double delta = a[i] - b[i];
        d += delta * delta;
    }
    return d;
}

ReferenceKMeans
referenceKMeans(const RowMatrix &matrix, unsigned k,
                unsigned max_iterations, std::uint64_t seed)
{
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < matrix.size(); ++i)
        rows.emplace_back(matrix[i], matrix[i] + matrix.dims());
    Rng rng(seed);
    ReferenceKMeans res;
    res.centroids.push_back(rows[rng.nextBounded(
        static_cast<std::uint32_t>(rows.size()))]);
    std::vector<double> dist(rows.size(),
                             std::numeric_limits<double>::max());
    while (res.centroids.size() < k) {
        double total = 0.0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            dist[i] = std::min(
                dist[i], referenceSqDist(rows[i], res.centroids.back()));
            total += dist[i];
        }
        if (total <= 0.0) {
            res.centroids.push_back(res.centroids.back());
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
        res.centroids.push_back(rows[pick]);
    }

    res.assignments.assign(rows.size(), 0);
    std::size_t dims = rows[0].size();
    for (unsigned iter = 0; iter < max_iterations; ++iter) {
        bool changed = false;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::uint32_t best = 0;
            double best_d = std::numeric_limits<double>::max();
            for (std::uint32_t c = 0; c < k; ++c) {
                double d = referenceSqDist(rows[i], res.centroids[c]);
                if (d < best_d) {
                    best_d = d;
                    best = c;
                }
            }
            if (res.assignments[i] != best) {
                res.assignments[i] = best;
                changed = true;
            }
        }
        if (!changed && iter > 0)
            break;
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
                continue;
            for (std::size_t d = 0; d < dims; ++d)
                res.centroids[c][d] =
                    sums[c][d] / static_cast<double>(counts[c]);
        }
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
        res.inertia += referenceSqDist(
            rows[i], res.centroids[res.assignments[i]]);
    return res;
}

/** kMeans(rows, k, ...) equals referenceKMeans bit for bit. */
void
expectMatchesReference(const RowMatrix &rows, unsigned k,
                       unsigned max_iterations, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "n=" << rows.size() << " k=" << k
                                    << " seed=" << seed);
    ReferenceKMeans ref = referenceKMeans(rows, k, max_iterations, seed);
    KMeansResult got = kMeans(rows, k, max_iterations, seed);
    EXPECT_EQ(got.assignments, ref.assignments);
    ASSERT_EQ(got.centroids.size(), k);
    ASSERT_EQ(got.centroids.dims(), rows.dims());
    for (unsigned c = 0; c < k; ++c)
        for (std::size_t d = 0; d < rows.dims(); ++d)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got.centroids[c][d]),
                      std::bit_cast<std::uint64_t>(ref.centroids[c][d]))
                << "centroid " << c << " coordinate " << d;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.inertia),
              std::bit_cast<std::uint64_t>(ref.inertia));
}

/**
 * Rows shaped like a paper profile's: @p n frequency-normalized
 * 16-counter intervals in runs of 5 to 40 drawn from @p shapes code
 * shapes, each a few hot counters, with per-interval jitter.
 */
RowMatrix
paperShapedRows(std::size_t n, unsigned shapes, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> mass(shapes,
                                          std::vector<double>(16, 1.0));
    for (auto &shape : mass)
        for (int hot = 0; hot < 4; ++hot)
            shape[rng.nextBounded(16)] += 50.0 + rng.nextBounded(200);
    trace::IntervalProfile p("t", "ooo", 1000, {16});
    while (p.numIntervals() < n) {
        const std::vector<double> &shape = mass[rng.nextBounded(shapes)];
        std::size_t run = 5 + rng.nextBounded(36);
        for (std::size_t j = 0; j < run && p.numIntervals() < n; ++j) {
            trace::IntervalRecord rec;
            rec.insts = 1000;
            rec.cpi = 1.0;
            std::vector<std::uint32_t> raw(16);
            rec.accumTotal = 0;
            for (std::size_t d = 0; d < 16; ++d) {
                raw[d] = static_cast<std::uint32_t>(
                    shape[d] * (0.7 + 0.6 * rng.nextDouble()));
                rec.accumTotal += raw[d];
            }
            p.push(rec, raw);
        }
    }
    return normalizedIntervalVectors(p, 16);
}

/**
 * The offline classifier's specification as an exhaustive sweep:
 * best-of-restarts k-means for every k in 1..maxK on one
 * Rng(cfg.seed) stream, then the scree rule over all candidates
 * (first k explaining the configured variance, else maxK; k = 1 when
 * the variance per interval is below 1e-9), then the BIC-style score
 * of the chosen k.
 */
OfflineResult
exhaustiveSweep(const trace::IntervalProfile &profile,
                const OfflineConfig &cfg)
{
    auto rows = normalizedIntervalVectors(profile, cfg.dims);
    unsigned max_k = std::min<unsigned>(
        cfg.maxK, static_cast<unsigned>(rows.size()));
    Rng rng(cfg.seed);
    std::vector<KMeansResult> best(max_k);
    for (unsigned k = 1; k <= max_k; ++k) {
        double best_inertia = std::numeric_limits<double>::max();
        for (unsigned r = 0; r < cfg.restarts; ++r) {
            KMeansResult km =
                kMeans(rows, k, cfg.maxIterations, rng.next64());
            if (km.inertia < best_inertia) {
                best_inertia = km.inertia;
                best[k - 1] = std::move(km);
            }
        }
    }

    double n = static_cast<double>(rows.size());
    double d = static_cast<double>(rows.dims());
    double total_variance = best[0].inertia;
    unsigned k = max_k;
    if (total_variance / n < 1e-9) {
        k = 1;
    } else {
        for (unsigned c = 1; c <= max_k; ++c) {
            if (best[c - 1].inertia <=
                (1.0 - cfg.explainedVariance) * total_variance) {
                k = c;
                break;
            }
        }
    }

    const KMeansResult &chosen = best[k - 1];
    double df = std::max(n - static_cast<double>(k), 1.0);
    double variance = std::max(chosen.inertia / (d * df), 1e-9);
    double log_likelihood =
        -0.5 * n * d * std::log(2.0 * M_PI * variance) - 0.5 * d * df;
    double params = static_cast<double>(k) * (d + 1.0);

    OfflineResult out;
    out.assignments = chosen.assignments;
    out.k = k;
    out.inertia = chosen.inertia;
    out.score = log_likelihood - 0.5 * params * std::log(n);
    return out;
}

/** classifyOffline() must equal the exhaustive sweep bit for bit. */
void
expectMatchesExhaustiveSweep(const trace::IntervalProfile &profile,
                             const OfflineConfig &cfg,
                             unsigned expected_k)
{
    OfflineResult ref = exhaustiveSweep(profile, cfg);
    OfflineResult got = classifyOffline(profile, cfg);
    EXPECT_EQ(ref.k, expected_k);
    EXPECT_EQ(got.k, ref.k);
    EXPECT_EQ(got.assignments, ref.assignments);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.inertia),
              std::bit_cast<std::uint64_t>(ref.inertia));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.score),
              std::bit_cast<std::uint64_t>(ref.score));
}

} // namespace

TEST(KMeans, SingleClusterCentroidIsMean)
{
    RowMatrix rows = matrixOf({{0, 0}, {2, 0}, {4, 0}});
    KMeansResult r = kMeans(rows, 1, 20, 1);
    ASSERT_EQ(r.centroids.size(), 1u);
    EXPECT_NEAR(r.centroids[0][0], 2.0, 1e-9);
    EXPECT_NEAR(r.centroids[0][1], 0.0, 1e-9);
    EXPECT_NEAR(r.inertia, 8.0, 1e-9);
}

TEST(KMeans, SeparatedBlobsRecovered)
{
    auto rows = threeBlobs(40);
    KMeansResult r = kMeans(rows, 3, 50, 7);
    // Each blob maps to exactly one cluster.
    for (int blob = 0; blob < 3; ++blob) {
        std::set<std::uint32_t> ids;
        for (std::size_t i = 0; i < 40; ++i)
            ids.insert(r.assignments[blob * 40 + i]);
        EXPECT_EQ(ids.size(), 1u) << "blob " << blob << " split";
    }
    // And distinct blobs map to distinct clusters.
    std::set<std::uint32_t> firsts = {r.assignments[0],
                                      r.assignments[40],
                                      r.assignments[80]};
    EXPECT_EQ(firsts.size(), 3u);
}

TEST(KMeans, InertiaDecreasesWithK)
{
    auto rows = threeBlobs(30);
    double prev = std::numeric_limits<double>::max();
    for (unsigned k = 1; k <= 4; ++k) {
        KMeansResult r = kMeans(rows, k, 50, 11);
        EXPECT_LE(r.inertia, prev + 1e-9) << "k=" << k;
        prev = r.inertia;
    }
}

TEST(KMeans, AssignmentsInRange)
{
    auto rows = threeBlobs(20);
    KMeansResult r = kMeans(rows, 5, 30, 3);
    for (auto a : r.assignments)
        EXPECT_LT(a, 5u);
    EXPECT_EQ(r.assignments.size(), rows.size());
}

TEST(KMeans, DeterministicForSeed)
{
    auto rows = threeBlobs(25);
    KMeansResult a = kMeans(rows, 3, 50, 42);
    KMeansResult b = kMeans(rows, 3, 50, 42);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(OfflineClassify, FindsThePlantedPhaseCount)
{
    trace::IntervalProfile profile = shapedProfile(240);
    OfflineConfig cfg;
    cfg.maxK = 10;
    OfflineResult r = classifyOffline(profile, cfg);
    EXPECT_GE(r.k, 3u);
    EXPECT_LE(r.k, 5u)
        << "three planted shapes, modest over-split allowed";
    EXPECT_EQ(r.assignments.size(), profile.numIntervals());
}

TEST(OfflineClassify, AssignmentsGroupLikeShapes)
{
    trace::IntervalProfile profile = shapedProfile(240);
    OfflineResult r = classifyOffline(profile);
    // Intervals 0..9 (shape 0) and 30..39 (shape 0 again) should be
    // in the same cluster.
    EXPECT_EQ(r.assignments[2], r.assignments[32]);
    EXPECT_EQ(r.assignments[12], r.assignments[42]);
    EXPECT_NE(r.assignments[2], r.assignments[12]);
}

TEST(OfflineClassify, SingleShapeGivesFewClusters)
{
    trace::IntervalProfile p("t", "ooo", 1000, {16});
    for (int i = 0; i < 60; ++i) {
        trace::IntervalRecord rec;
        rec.insts = 1000;
        rec.cpi = 1.0;
        std::vector<std::uint32_t> raw(16, 0);
        raw[3] = 1000;
        rec.accumTotal = 1000;
        p.push(rec, raw);
    }
    OfflineResult r = classifyOffline(p);
    EXPECT_LE(r.k, 2u);
}

TEST(OfflineClassify, EarlyStopMatchesExhaustiveSweep)
{
    // Three planted shapes: the scree rule accepts a k well below
    // maxK, so the sweep stops early.
    OfflineConfig cfg;
    expectMatchesExhaustiveSweep(shapedProfile(240), cfg, 3);
}

TEST(OfflineClassify, NoQualifyingKMatchesExhaustiveSweep)
{
    // Explaining all variance is out of reach on jittered shapes, so
    // no k qualifies and the result falls through to maxK.
    OfflineConfig cfg;
    cfg.maxK = 8;
    cfg.explainedVariance = 1.0;
    expectMatchesExhaustiveSweep(shapedProfile(240), cfg, 8);
}

TEST(OfflineClassify, DegenerateInputMatchesExhaustiveSweep)
{
    // k = 1 from the degenerate-input fallback, not the scree rule.
    OfflineConfig cfg;
    expectMatchesExhaustiveSweep(nearConstantProfile(60), cfg, 1);
}

TEST(OfflineClassify, DeterministicForFixedSeed)
{
    trace::IntervalProfile profile = shapedProfile(180);
    OfflineConfig cfg;
    cfg.seed = 0xfeedu;
    OfflineResult a = classifyOffline(profile, cfg);
    OfflineResult b = classifyOffline(profile, cfg);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
    EXPECT_DOUBLE_EQ(a.score, b.score);
}

TEST(OfflineClassify, BitIdenticalAcrossJobCounts)
{
    // The classification grid must not depend on how it is fanned
    // out: the same cells at --jobs=1 and --jobs=4 must produce
    // byte-identical assignments (the contract every harness's
    // output determinism rests on).
    std::vector<trace::IntervalProfile> profiles;
    for (std::size_t n : {90u, 120u, 150u, 240u})
        profiles.push_back(shapedProfile(n));
    auto classifyAll = [&](unsigned jobs) {
        return runIndexed(profiles.size(), jobs,
                          [&](std::size_t i) {
                              return classifyOffline(profiles[i]);
                          });
    };
    std::vector<OfflineResult> serial = classifyAll(1);
    std::vector<OfflineResult> fanned = classifyAll(4);
    ASSERT_EQ(serial.size(), fanned.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].k, fanned[i].k) << "profile " << i;
        EXPECT_EQ(serial[i].assignments, fanned[i].assignments)
            << "profile " << i;
        EXPECT_DOUBLE_EQ(serial[i].inertia, fanned[i].inertia)
            << "profile " << i;
    }
}

TEST(NormalizedVectors, RowsAreUnitSumFrequencies)
{
    trace::IntervalProfile profile = shapedProfile(60);
    auto rows = normalizedIntervalVectors(profile, 16);
    ASSERT_EQ(rows.size(), profile.numIntervals());
    ASSERT_EQ(rows.dims(), 16u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        double sum = 0.0;
        for (std::size_t d = 0; d < rows.dims(); ++d) {
            EXPECT_GE(rows[i][d], 0.0);
            sum += rows[i][d];
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(NormalizedVectors, SameShapeGivesSimilarRows)
{
    // Intervals 2 and 32 share planted shape 0; interval 12 is
    // shape 1 — distances in row space must reflect that.
    trace::IntervalProfile profile = shapedProfile(60);
    auto rows = normalizedIntervalVectors(profile, 16);
    auto dist = [&](std::size_t a, std::size_t b) {
        double d = 0.0;
        for (std::size_t i = 0; i < rows.dims(); ++i)
            d += (rows[a][i] - rows[b][i]) *
                 (rows[a][i] - rows[b][i]);
        return std::sqrt(d);
    };
    EXPECT_LT(dist(2, 32), dist(2, 12));
}

TEST(OfflineKMeans, PrunedMatchesReferenceLloyd)
{
    // Duplicate rows: six distinct rows, ten copies each.
    std::vector<std::vector<double>> dup;
    for (int copy = 0; copy < 10; ++copy)
        for (int r = 0; r < 6; ++r)
            dup.push_back({static_cast<double>(r % 3), r * 0.25, 1.0});
    for (unsigned k : {1u, 3u, 6u, 9u})
        expectMatchesReference(matrixOf(dup), k, 50, 17 + k);

    // All rows identical: seeding's total <= 0 branch duplicates
    // centroids, so every distance ties.
    RowMatrix same = matrixOf(
        std::vector<std::vector<double>>(30, {0.125, 0.5, 0.375}));
    for (unsigned k : {1u, 2u, 7u, 30u})
        expectMatchesReference(same, k, 50, 3);

    // Rows on an integer lattice: many rows equidistant from two
    // centroids, where the first index must win.
    std::vector<std::vector<double>> grid;
    for (int x = 0; x < 7; ++x)
        for (int y = 0; y < 7; ++y)
            grid.push_back({static_cast<double>(x),
                            static_cast<double>(y)});
    for (unsigned k : {2u, 3u, 4u, 5u, 8u})
        for (std::uint64_t seed : {1u, 2u, 3u})
            expectMatchesReference(matrixOf(grid), k, 50, seed);

    // k = 1 and k = n.
    RowMatrix small = threeBlobs(4, 9);
    expectMatchesReference(small, 1, 50, 5);
    expectMatchesReference(small, static_cast<unsigned>(small.size()),
                           50, 5);

    // Unnormalized blobs of magnitude ~10 and ~1e6.
    for (double scale : {1.0, 1e5})
        for (unsigned k : {2u, 3u, 5u, 12u})
            expectMatchesReference(threeBlobs(40, 4, scale), k, 50, k);

    // Paper-shaped rows up to the cap abl_offline sweeps to.
    RowMatrix paper = paperShapedRows(600, 12, 21);
    for (unsigned k : {2u, 8u, 20u, 40u})
        expectMatchesReference(paper, k, 50, 100 + k);
}

TEST(OfflineKMeans, BoundsSkipMostRowVisits)
{
    // A bound that never holds would fall back to brute force and
    // still match the reference; on paper-shaped rows the bounds
    // must spare at least half of the row visits.
    RowMatrix rows = paperShapedRows(2000, 10, 5);
    std::size_t visits = 0, skips = 0;
    for (unsigned k : {4u, 10u, 20u}) {
        KMeansResult r = kMeans(rows, k, 50, k);
        visits += r.visits;
        skips += r.skips;
    }
    EXPECT_GE(2 * skips, visits) << skips << " of " << visits;
}
