/**
 * @file
 * Property-based sweeps over signature compression and the
 * similarity metric: metric axioms and compression invariants across
 * bit widths, dimensionalities and selection modes.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "phase/signature.hh"
#include "subgrid.hh"

using namespace tpcp;
using namespace tpcp::phase;

namespace
{

/** (dims, bitsPerDim, dynamicMode, scaleShift). */
using Params = std::tuple<unsigned, unsigned, bool, unsigned>;

// The grid's axes besides the selection mode.
constexpr unsigned kDims[] = {8, 16, 32};
constexpr unsigned kBits[] = {4, 6, 8};
constexpr unsigned kScales[] = {0, 8};

std::string
gridName(const ::testing::TestParamInfo<Params> &info)
{
    std::string name = "d";
    name += std::to_string(std::get<0>(info.param));
    name += "_b";
    name += std::to_string(std::get<1>(info.param));
    name += std::get<2>(info.param) ? "_dyn" : "_stat";
    name += "_s";
    name += std::to_string(std::get<3>(info.param));
    return name;
}

std::vector<std::uint32_t>
randomRaw(Rng &rng, unsigned dims, unsigned scale_shift)
{
    std::vector<std::uint32_t> raw(dims);
    for (auto &c : raw)
        c = rng.nextBounded(1000) << scale_shift;
    return raw;
}

class SignatureProperties : public ::testing::TestWithParam<Params>
{
  protected:
    Signature
    compress(const std::vector<std::uint32_t> &raw) const
    {
        auto [dims, bits, dynamic, scale] = GetParam();
        InstCount total = 0;
        for (auto c : raw)
            total += c;
        return Signature::fromAccumulators(
            raw, total, bits,
            dynamic ? BitSelection::Dynamic : BitSelection::Static,
            4);
    }
};

/** Scale invariance is the dynamic selection mode's property, so it
 * runs on the grid's dynamic half only. */
void
dynamicModeScaleInvariant(const Params &params)
{
    const unsigned dims = std::get<0>(params);
    const unsigned bits = std::get<1>(params);
    Rng rng(std::uint64_t{99 + dims});
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::uint32_t> raw = randomRaw(rng, dims, 0);
        std::vector<std::uint32_t> scaled(raw);
        for (auto &c : scaled)
            c <<= 6;
        InstCount total = 0, scaled_total = 0;
        for (std::size_t i = 0; i < raw.size(); ++i) {
            total += raw[i];
            scaled_total += scaled[i];
        }
        Signature a = Signature::fromAccumulators(
            raw, total, bits, BitSelection::Dynamic);
        Signature b = Signature::fromAccumulators(
            scaled, scaled_total, bits, BitSelection::Dynamic);
        // The same shape at a 64x larger interval compresses to a
        // near-identical signature (up to +-1 rounding per dim).
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_NEAR(static_cast<int>(a.dim(i)),
                        static_cast<int>(b.dim(i)), 1)
                << "dim " << i;
        }
    }
}

std::vector<Params>
dynamicPoints()
{
    std::vector<Params> points;
    for (unsigned dims : kDims)
        for (unsigned bits : kBits)
            for (unsigned scale : kScales)
                points.emplace_back(dims, bits, true, scale);
    return points;
}

const bool kDynamicRegistered =
    test::registerOnSubgrid<SignatureProperties>(
        "Grid/SignatureProperties", "DynamicModeScaleInvariant",
        dynamicPoints(), gridName, dynamicModeScaleInvariant);

} // namespace

TEST_P(SignatureProperties, MetricAxioms)
{
    auto [dims, bits, dynamic, scale] = GetParam();
    Rng rng(std::uint64_t{dims * 131 + bits * 17 + scale});
    for (int trial = 0; trial < 50; ++trial) {
        Signature a = compress(randomRaw(rng, dims, scale));
        Signature b = compress(randomRaw(rng, dims, scale));
        Signature c = compress(randomRaw(rng, dims, scale));

        // Identity and symmetry.
        EXPECT_DOUBLE_EQ(a.difference(a), 0.0);
        EXPECT_DOUBLE_EQ(a.difference(b), b.difference(a));
        // Bounds.
        double d = a.difference(b);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
        // Manhattan triangle inequality on the raw distance.
        EXPECT_LE(a.manhattan(c),
                  a.manhattan(b) + b.manhattan(c));
    }
}

TEST_P(SignatureProperties, CompressionBounds)
{
    auto [dims, bits, dynamic, scale] = GetParam();
    Rng rng(std::uint64_t{dims + bits + scale + 1});
    std::uint8_t max_dim =
        static_cast<std::uint8_t>((1u << bits) - 1);
    for (int trial = 0; trial < 50; ++trial) {
        Signature s = compress(randomRaw(rng, dims, scale));
        EXPECT_EQ(s.size(), dims);
        EXPECT_EQ(s.bitsPerDim(), bits);
        std::uint32_t weight = 0;
        for (std::size_t i = 0; i < s.size(); ++i) {
            EXPECT_LE(s.dim(i), max_dim);
            weight += s.dim(i);
        }
        EXPECT_EQ(s.weight(), weight);
    }
}

TEST_P(SignatureProperties, ZeroVectorCompressesToZero)
{
    auto [dims, bits, dynamic, scale] = GetParam();
    std::vector<std::uint32_t> raw(dims, 0);
    Signature s = Signature::fromAccumulators(
        raw, 0, bits,
        dynamic ? BitSelection::Dynamic : BitSelection::Static, 4);
    EXPECT_EQ(s.weight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SignatureProperties,
    ::testing::Combine(::testing::ValuesIn(kDims),
                       ::testing::ValuesIn(kBits),
                       ::testing::Bool(), // dynamic
                       ::testing::ValuesIn(kScales)),
    gridName);
