/**
 * @file
 * Offline SimPoint-style phase classification (k-means over
 * per-interval code-signature vectors).
 *
 * The paper repeatedly benchmarks its *online* classifier against the
 * *offline* algorithm used by SimPoint (Sherwood et al., ASPLOS 2002;
 * Perelman et al., PACT 2003): section 4.4 prefers the 25% similarity
 * threshold partly because "the resulting CPI CoV and number of
 * phases produced are comparable to the results of the offline phase
 * classification algorithm used in SimPoint", and section 7 repeats
 * the claim. This module implements that comparator: k-means with
 * k-means++ seeding over normalized interval vectors, with the number
 * of clusters picked by an explained-variance scree rule (see
 * OfflineConfig::explainedVariance), so the claim can be checked
 * directly (bench/abl_offline). The sweep over k stops at the chosen
 * k; a BIC-style score of that clustering is reported alongside.
 */

#ifndef TPCP_ANALYSIS_OFFLINE_KMEANS_HH
#define TPCP_ANALYSIS_OFFLINE_KMEANS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "trace/interval_profile.hh"

namespace tpcp::analysis
{

/** Configuration of the offline clustering. */
struct OfflineConfig
{
    /** Accumulator dimensionality to read from the profile. */
    unsigned dims = 16;
    /** Largest candidate cluster count; k = 1, 2, ... is tried in
     * order up to the first one the scree rule accepts. */
    unsigned maxK = 20;
    /** Random restarts per k (best inertia wins). */
    unsigned restarts = 3;
    /** Lloyd iterations per restart. */
    unsigned maxIterations = 50;
    /**
     * k-selection rule: the smallest k whose clustering explains at
     * least this fraction of the total variance (1 - inertia(k) /
     * inertia(1)). A deterministic scree criterion that behaves like
     * SimPoint's BIC-threshold rule on phase data while remaining
     * robust both to well-separated clusters (where raw BIC
     * over-splits bounded noise) and to gradual structure (where a
     * fixed per-split elbow under-splits).
     */
    double explainedVariance = 0.9;
    /** RNG seed for seeding/restarts. */
    std::uint64_t seed = 0x5eedu;
};

/** Result of the offline classification. */
struct OfflineResult
{
    /** Cluster (phase) ID per interval, 0-based. */
    std::vector<std::uint32_t> assignments;
    /** Number of clusters chosen. */
    unsigned k = 0;
    /** Sum of squared distances to the chosen centroids. */
    double inertia = 0.0;
    /** BIC-style score of the chosen clustering (reported only; it
     * does not pick k). */
    double score = 0.0;
};

/**
 * Clusters the intervals of @p profile by their (frequency-
 * normalized) accumulator vectors.
 */
OfflineResult classifyOffline(const trace::IntervalProfile &profile,
                              const OfflineConfig &cfg = {});

/**
 * One frequency-normalized accumulator vector per interval at
 * dimension config @p dims (each vector sums to 1, or is all zero
 * for an empty interval) — the row representation k-means clusters,
 * exposed for other signature-space consumers (e.g. the sampling
 * subsystem's centroid-nearest selector).
 */
std::vector<std::vector<double>> normalizedIntervalVectors(
    const trace::IntervalProfile &profile, unsigned dims);

/**
 * Low-level k-means on arbitrary row vectors (exposed for testing):
 * k-means++ seeding, Lloyd iterations, returns assignments and
 * inertia for a fixed @p k.
 */
struct KMeansResult
{
    std::vector<std::uint32_t> assignments;
    std::vector<std::vector<double>> centroids;
    double inertia = 0.0;
};

KMeansResult kMeans(const std::vector<std::vector<double>> &rows,
                    unsigned k, unsigned max_iterations,
                    std::uint64_t seed);

} // namespace tpcp::analysis

#endif // TPCP_ANALYSIS_OFFLINE_KMEANS_HH
