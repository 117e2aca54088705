/**
 * @file
 * Property-based sweeps over the classifier configuration space:
 * invariants that must hold for every combination of similarity
 * threshold, min-count threshold, table size and dimensionality.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "phase/classifier.hh"
#include "subgrid.hh"

using namespace tpcp;
using namespace tpcp::phase;

namespace
{

/** (similarity, minCount, tableEntries, dims). */
using Params = std::tuple<double, unsigned, unsigned, unsigned>;

// The grid's axes; min count 0 disables the transition phase.
constexpr double kSimilarities[] = {0.125, 0.25, 0.5};
constexpr unsigned kMinCounts[] = {0, 4, 8};
constexpr unsigned kTableEntries[] = {8, 32, 0};
constexpr unsigned kDims[] = {16, 32};

std::string
gridName(const ::testing::TestParamInfo<Params> &info)
{
    std::string name = "t";
    name += std::to_string(int(std::get<0>(info.param) * 1000));
    name += "_m";
    name += std::to_string(std::get<1>(info.param));
    name += "_e";
    name += std::to_string(std::get<2>(info.param));
    name += "_d";
    name += std::to_string(std::get<3>(info.param));
    return name;
}

ClassifierConfig
configFor(const Params &params)
{
    auto [threshold, min_count, entries, dims] = params;
    ClassifierConfig cfg;
    cfg.similarityThreshold = threshold;
    cfg.minCountThreshold = min_count;
    cfg.tableEntries = entries;
    cfg.numCounters = dims;
    return cfg;
}

/** A synthetic interval stream: wandering between 6 shapes with
 * noise, plus occasional one-off shapes. */
struct Stream
{
    std::vector<std::vector<std::uint32_t>> raws;
    std::vector<double> cpis;
};

Stream
makeStream(unsigned dims, std::uint64_t seed, std::size_t n = 400)
{
    Stream s;
    Rng rng(seed);
    unsigned shape = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.nextBool(0.15))
            shape = rng.nextBounded(6);
        bool oneoff = rng.nextBool(0.05);
        unsigned use = oneoff ? 100 + rng.nextBounded(50) : shape;
        std::vector<std::uint32_t> raw(dims, 0);
        raw[(use * 7 + 1) % dims] += 60'000;
        raw[(use * 7 + 3) % dims] += 25'000;
        raw[(use * 13 + 5) % dims] += 15'000;
        for (auto &c : raw) {
            c = static_cast<std::uint32_t>(
                c * (1.0 + 0.05 * (rng.nextDouble() - 0.5)));
        }
        s.raws.push_back(std::move(raw));
        s.cpis.push_back(0.5 + use * 0.3 +
                         0.05 * rng.nextGaussian());
    }
    return s;
}

class ClassifierProperties
    : public ::testing::TestWithParam<Params>
{
  protected:
    ClassifierConfig config() const { return configFor(GetParam()); }
};

/** Raising the min-count threshold can only classify more intervals
 * as transitions (the counter must climb higher). The property needs
 * a transition phase, so it runs on the grid's min counts above 0. */
void
transitionFractionMonotoneInMinCount(const Params &params)
{
    ClassifierConfig cfg = configFor(params);
    Stream s = makeStream(cfg.numCounters, 13);

    ClassifierConfig lower = cfg;
    lower.minCountThreshold = cfg.minCountThreshold / 2;
    PhaseClassifier hi(cfg), lo(lower);
    for (std::size_t i = 0; i < s.raws.size(); ++i) {
        hi.classifyRaw(s.raws[i], 100'000, s.cpis[i]);
        lo.classifyRaw(s.raws[i], 100'000, s.cpis[i]);
    }
    EXPECT_GE(hi.stats().transitionIntervals,
              lo.stats().transitionIntervals);
}

std::vector<Params>
transitionPoints()
{
    std::vector<Params> points;
    for (double similarity : kSimilarities)
        for (unsigned min_count : kMinCounts)
            for (unsigned entries : kTableEntries)
                for (unsigned dims : kDims)
                    if (min_count > 0)
                        points.emplace_back(similarity, min_count,
                                            entries, dims);
    return points;
}

const bool kTransitionRegistered =
    test::registerOnSubgrid<ClassifierProperties>(
        "ConfigGrid/ClassifierProperties",
        "TransitionFractionMonotoneInMinCount", transitionPoints(),
        gridName, transitionFractionMonotoneInMinCount);

} // namespace

TEST_P(ClassifierProperties, InvariantsHoldOverStream)
{
    ClassifierConfig cfg = config();
    PhaseClassifier c(cfg);
    Stream s = makeStream(cfg.numCounters, 42);

    std::set<PhaseId> seen;
    for (std::size_t i = 0; i < s.raws.size(); ++i) {
        ClassifyResult r =
            c.classifyRaw(s.raws[i], 100'000, s.cpis[i]);
        seen.insert(r.phase);
        // Result-flag consistency.
        EXPECT_NE(r.matched, r.inserted)
            << "exactly one of matched/inserted";
        if (r.phase == transitionPhaseId) {
            EXPECT_NE(cfg.minCountThreshold, 0u)
                << "no transition phase when min count disabled";
        }
        EXPECT_GE(r.distance, 0.0);
        EXPECT_LE(r.distance, 1.0);
        // Table never exceeds capacity.
        if (cfg.tableEntries) {
            EXPECT_LE(c.table().size(), cfg.tableEntries);
        }
    }

    // Phase IDs allocated contiguously starting at 1.
    std::uint32_t allocated = c.numStablePhases();
    for (PhaseId id : seen) {
        if (id != transitionPhaseId) {
            EXPECT_LE(id, allocated);
        }
    }
    // Stats add up.
    EXPECT_EQ(c.stats().intervals, s.raws.size());
    EXPECT_LE(c.stats().transitionIntervals, c.stats().intervals);
    double tf = c.stats().transitionFraction();
    EXPECT_GE(tf, 0.0);
    EXPECT_LE(tf, 1.0);
    // At least one phase exists (unless everything stayed
    // transitional, possible only with a min count).
    if (cfg.minCountThreshold == 0) {
        EXPECT_GE(allocated, 1u);
    }
}

TEST_P(ClassifierProperties, DeterministicReplay)
{
    ClassifierConfig cfg = config();
    Stream s = makeStream(cfg.numCounters, 7);
    PhaseClassifier a(cfg), b(cfg);
    for (std::size_t i = 0; i < s.raws.size(); ++i) {
        PhaseId pa =
            a.classifyRaw(s.raws[i], 100'000, s.cpis[i]).phase;
        PhaseId pb =
            b.classifyRaw(s.raws[i], 100'000, s.cpis[i]).phase;
        EXPECT_EQ(pa, pb) << "at interval " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, ClassifierProperties,
    ::testing::Combine(::testing::ValuesIn(kSimilarities),
                       ::testing::ValuesIn(kMinCounts),
                       ::testing::ValuesIn(kTableEntries),
                       ::testing::ValuesIn(kDims)),
    gridName);
