/**
 * @file
 * Adversarial corpus generator: determinism, the leaf-fold aliasing
 * property that defines "phase-alias" (identical folded vectors at
 * dims <= kAliasDim, distinct above), conservation invariants of the
 * integer counter model, spec validation, and a drift check that
 * regenerating each family seed reproduces the checked-in
 * tests/corpus/adversarial bytes exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "common/status.hh"
#include "trace/trace_file.hh"
#include "workload/adversarial.hh"

using namespace tpcp;
using namespace tpcp::workload;

namespace
{

TEST(Adversarial, SameSpecIsByteDeterministic)
{
    for (const std::string &family : adversarialFamilies()) {
        AdversarialSpec spec;
        spec.family = family;
        spec.intervals = 50;
        AdversarialTrace a = makeAdversarial(spec);
        AdversarialTrace b = makeAdversarial(spec);
        EXPECT_EQ(trace::encodeTrace(a.profile, ""),
                  trace::encodeTrace(b.profile, ""))
            << family;
        EXPECT_EQ(a.truth, b.truth) << family;
    }
}

TEST(Adversarial, DistinctSeedsDiffer)
{
    AdversarialSpec spec;
    spec.intervals = 50;
    AdversarialTrace s1 = makeAdversarial(spec);
    spec.seed = 2;
    AdversarialTrace s2 = makeAdversarial(spec);
    EXPECT_NE(trace::encodeTrace(s1.profile, ""),
              trace::encodeTrace(s2.profile, ""));
}

TEST(Adversarial, PhaseAliasCollidesAtLowDimsOnly)
{
    // The defining property: the two behaviors fold to *identical*
    // counter vectors at every dim <= kAliasDim and to distinct
    // vectors above it. Dims {8, 16, 32, 64} are recorded in spec
    // order.
    AdversarialSpec spec;
    spec.intervals = 80; // one full run of each behavior (runLen 40)
    AdversarialTrace adv = makeAdversarial(spec);
    ASSERT_EQ(adv.numBehaviors, 2u);
    ASSERT_EQ(adv.truth[0], 0u);
    ASSERT_EQ(adv.truth[40], 1u);
    const trace::IntervalProfile &p = adv.profile;
    ASSERT_EQ(p.dims().size(), 4u);
    auto same = [&](std::size_t d) {
        return std::equal(p.counters(0, d), p.counters(0, d) + p.dims()[d],
                          p.counters(40, d));
    };
    EXPECT_TRUE(same(0));  // dim 8: aliased
    EXPECT_TRUE(same(1));  // dim 16: aliased
    EXPECT_FALSE(same(2)); // dim 32: distinct
    EXPECT_FALSE(same(3)); // dim 64: distinct
    // ... while the CPIs are far apart (0.8 vs 2.4, tiny jitter).
    EXPECT_GT(adv.profile.interval(40).cpi -
                  adv.profile.interval(0).cpi,
              1.0);
}

TEST(Adversarial, CounterSumsAreConserved)
{
    // Every dimension's counters fold the same integer leaf mass, so
    // each vector sums exactly to accumTotal — the consistency real
    // accumulator snapshots have.
    for (const std::string &family : adversarialFamilies()) {
        AdversarialSpec spec;
        spec.family = family;
        spec.intervals = 30;
        AdversarialTrace adv = makeAdversarial(spec);
        ASSERT_EQ(adv.truth.size(), spec.intervals) << family;
        ASSERT_EQ(adv.profile.numIntervals(), spec.intervals)
            << family;
        for (std::size_t i = 0; i < spec.intervals; ++i) {
            const auto &rec = adv.profile.interval(i);
            EXPECT_EQ(rec.accumTotal, spec.intervalLen);
            for (std::size_t d = 0; d < spec.dims.size(); ++d) {
                const std::uint32_t *c = adv.profile.counters(i, d);
                const std::uint64_t sum =
                    std::accumulate(c, c + spec.dims[d], 0ull);
                EXPECT_EQ(sum, rec.accumTotal)
                    << family << " interval " << i;
            }
            EXPECT_LT(adv.truth[i], adv.numBehaviors);
        }
    }
}

TEST(Adversarial, RejectsBadSpecs)
{
    AdversarialSpec spec;
    spec.family = "no-such-family";
    EXPECT_THROW(makeAdversarial(spec), Error);
    spec = {};
    spec.intervals = 0;
    EXPECT_THROW(makeAdversarial(spec), Error);
    spec = {};
    spec.intervalLen = 0;
    EXPECT_THROW(makeAdversarial(spec), Error);
    spec = {};
    spec.intervalLen = 0x1'0000'0000ull; // counters are 32-bit
    EXPECT_THROW(makeAdversarial(spec), Error);
    spec = {};
    spec.dims = {};
    EXPECT_THROW(makeAdversarial(spec), Error);
    spec = {};
    spec.dims = {8, 0};
    EXPECT_THROW(makeAdversarial(spec), Error);
}

TEST(AdversarialCorpus, SeedFilesHaveNotDrifted)
{
    // The checked-in seeds are `tpcp trace gen --family=F --seed=1
    // --intervals=600` outputs; regenerating must reproduce them
    // byte for byte, or the sweep baselines silently shift.
    for (const std::string &family : adversarialFamilies()) {
        AdversarialSpec spec;
        spec.family = family;
        AdversarialTrace adv = makeAdversarial(spec);
        std::vector<std::uint8_t> regen = trace::encodeTrace(
            adv.profile,
            "adversarial family=" + family + " seed=1");
        const std::string path = std::string(TPCP_SOURCE_DIR) +
                                 "/tests/corpus/adversarial/" + family +
                                 "-s1.tpcptrace";
        const std::vector<std::uint8_t> file = readFile(path);
        trace::TraceData checked = trace::parseTrace(file, path);
        std::vector<std::uint8_t> ondisk =
            trace::encodeTrace(checked.profile, checked.source);
        EXPECT_EQ(regen, ondisk) << family;
        EXPECT_EQ(regen, file) << family;
    }
}

} // namespace
