/**
 * @file
 * Bit-identity of the vectorized classify hot path against plain
 * references at the component level: SignatureTable::match against
 * a brute-force Signature::difference scan (both policies,
 * quarantined entries, weight-0 signatures, row widths on and off
 * the 16-byte chunk) and the O(1) LRU eviction order against a
 * reference min-lastUse rescan.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "phase/classifier.hh"
#include "phase/signature_table.hh"

using namespace tpcp;
using namespace tpcp::phase;

namespace
{

std::vector<std::uint8_t>
randomRow(Rng &rng, unsigned dims, unsigned max_val)
{
    std::vector<std::uint8_t> d(dims);
    for (auto &v : d)
        v = static_cast<std::uint8_t>(rng.nextBounded(max_val));
    return d;
}

/** Builds a table with a mix of ordinary, near-duplicate, weight-0
 * and (optionally) quarantined entries. */
SignatureTable
buildTable(Rng &rng, unsigned entries, unsigned dims,
           bool with_quarantined, bool with_zero_weight)
{
    SignatureTable table(0, 6); // unbounded, parity-tracked
    for (unsigned i = 0; i < entries; ++i) {
        std::vector<std::uint8_t> row;
        if (with_zero_weight && i % 7 == 3) {
            row.assign(dims, 0); // all-zero signature, weight 0
        } else if (i > 0 && i % 5 == 4) {
            // Near-duplicate of the previous row: clustered entries
            // with overlapping thresholds force real
            // best-vs-first-match divergence.
            Signature prev = table.signatureAt(i - 1);
            row.assign(prev.data(), prev.data() + dims);
            row[rng.nextBounded(dims)] ^= 1;
        } else {
            row = randomRow(rng, dims, 64);
        }
        double threshold = 0.05 + 0.2 * rng.nextDouble();
        table.insert(Signature(row, 6), threshold);
    }
    if (with_quarantined) {
        for (unsigned i = 0; i < entries; i += 4) {
            // Two flipped bits: uncorrectable, quarantines the entry.
            table.flipSignatureBit(i, 1);
            table.flipSignatureBit(i, 9);
            EXPECT_FALSE(table.checkParityAt(i));
        }
    }
    return table;
}

/**
 * The match decision spelled out entry by entry with
 * Signature::difference: no padding, no bounds, no grouping.
 * FirstMatch takes the first entry under its threshold, BestMatch
 * the strictly smallest difference.
 */
SignatureTable::MatchResult
bruteForceMatch(const SignatureTable &table, const Signature &query,
                MatchPolicy policy)
{
    SignatureTable::MatchResult best;
    for (std::uint32_t i = 0; i < table.size(); ++i) {
        if (table.quarantinedAt(i))
            continue;
        double diff = query.difference(table.signatureAt(i));
        if (diff >= table.threshold(i))
            continue;
        if (policy == MatchPolicy::FirstMatch)
            return {i, diff};
        if (!best || diff < best.distance)
            best = {i, diff};
    }
    return best;
}

} // namespace

TEST(SimdMatchEquivalence, AllLevelsAgreeWithScalarBothPolicies)
{
    // Each build compiles one kernel level; CI's scalar-identity job
    // runs this in the vector and the -DTPCP_SIMD=OFF build, so every
    // level is checked against the same scalar brute-force scan.
    Rng rng(std::uint64_t{0xabcd});
    // 24 is not a multiple of the 16-byte row chunk: its padded
    // tail must contribute nothing.
    for (unsigned dims : {16u, 24u, 32u, 64u}) {
        for (bool quarantine : {false, true}) {
            for (bool zeroWeight : {false, true}) {
                SignatureTable table = buildTable(
                    rng, 37, dims, quarantine, zeroWeight);
                for (int probe = 0; probe < 64; ++probe) {
                    std::vector<std::uint8_t> q;
                    if (probe % 9 == 5)
                        q.assign(dims, 0); // weight-0 query
                    else if (probe % 2 == 0)
                        q = randomRow(rng, dims, 64);
                    else {
                        // Perturbation of a stored row: likely hit.
                        Signature s = table.signatureAt(
                            rng.nextBounded(37));
                        q.assign(s.data(), s.data() + dims);
                        for (int k = 0; k < 3; ++k)
                            q[rng.nextBounded(dims)] ^= 1;
                    }
                    Signature query(q, 6);
                    for (MatchPolicy policy :
                         {MatchPolicy::FirstMatch,
                          MatchPolicy::BestMatch}) {
                        auto want = bruteForceMatch(table, query,
                                                    policy);
                        auto got = table.match(q.data(), dims,
                                               query.weight(), policy);
                        ASSERT_EQ(got.index, want.index)
                            << "dims=" << dims
                            << " quarantine=" << quarantine
                            << " zeroWeight=" << zeroWeight
                            << " probe=" << probe;
                        // Bit-identical distance, not just close.
                        if (want) {
                            ASSERT_EQ(got.distance, want.distance)
                                << "dims=" << dims
                                << " probe=" << probe;
                        }
                    }
                }
            }
        }
    }
}

TEST(SimdMatchEquivalence, SignatureMatchOverloadAgrees)
{
    Rng rng(std::uint64_t{0x1111});
    SignatureTable table = buildTable(rng, 16, 16, false, false);
    for (int probe = 0; probe < 32; ++probe) {
        Signature query(randomRow(rng, 16, 64), 6);
        for (MatchPolicy policy :
             {MatchPolicy::FirstMatch, MatchPolicy::BestMatch}) {
            auto want = bruteForceMatch(table, query, policy);
            auto got = table.match(query, policy);
            EXPECT_EQ(got.index, want.index) << "probe=" << probe;
            if (want) {
                EXPECT_EQ(got.distance, want.distance)
                    << "probe=" << probe;
            }
        }
    }
}

TEST(LruEviction, MatchesReferenceMinLastUseScan)
{
    // Drive a capacity-4 table through a long insert/touch stream and
    // mirror it with a reference model that picks victims by the old
    // O(n) min-lastUse rescan; the inserted-key sequence per slot
    // must stay identical.
    Rng rng(std::uint64_t{0xfeed});
    constexpr unsigned kCap = 4;
    constexpr unsigned kDims = 16;
    SignatureTable table(kCap, 6);
    std::vector<std::uint64_t> refLastUse; // reference model
    std::vector<unsigned> refKey;
    std::vector<unsigned> tableKey; // key stored per live slot
    std::uint64_t tick = 0;
    for (int step = 0; step < 4000; ++step) {
        if (!refKey.empty() && rng.nextBool(0.5)) {
            // Touch (or replace+touch) a random live entry, exactly
            // as the classifier's matched path does.
            std::uint32_t idx = rng.nextBounded(
                static_cast<std::uint32_t>(refKey.size()));
            auto row = randomRow(rng, kDims, 64);
            table.replaceSignature(idx, row.data(), kDims, 100);
            table.touch(idx);
            refLastUse[idx] = ++tick;
        } else {
            unsigned key = static_cast<unsigned>(step);
            auto row = randomRow(rng, kDims, 64);
            std::uint32_t idx = table.insert(row.data(), kDims, 100,
                                             0.25, 6);
            std::uint32_t refIdx;
            if (refKey.size() < kCap) {
                refKey.push_back(0);
                refLastUse.push_back(0);
                tableKey.push_back(0);
                refIdx = static_cast<std::uint32_t>(
                    refKey.size() - 1);
            } else {
                // The replaced reference victim: O(n) min rescan.
                refIdx = 0;
                for (std::uint32_t i = 1; i < refLastUse.size(); ++i)
                    if (refLastUse[i] < refLastUse[refIdx])
                        refIdx = i;
            }
            ASSERT_EQ(idx, refIdx) << "step " << step;
            refKey[refIdx] = key;
            refLastUse[refIdx] = ++tick;
            tableKey[idx] = key;
        }
    }
    EXPECT_EQ(table.size(), kCap);
}

TEST(LruEviction, SurvivesSaveLoadRoundTrip)
{
    Rng rng(std::uint64_t{0xcafe});
    constexpr unsigned kCap = 8;
    constexpr unsigned kDims = 16;
    SignatureTable table(kCap, 6);
    for (unsigned i = 0; i < kCap; ++i) {
        auto row = randomRow(rng, kDims, 64);
        table.insert(row.data(), kDims, 50 + i, 0.25, 6);
    }
    // Shuffle recency.
    for (int i = 0; i < 50; ++i)
        table.touch(rng.nextBounded(kCap));

    StateWriter saved;
    table.saveState(saved);
    SignatureTable loaded(kCap, 6);
    {
        StateReader r(saved.buffer());
        loaded.loadState(r);
    }
    // The reload must preserve the eviction order: insert kCap new
    // rows into both tables and require identical victim slots.
    for (unsigned i = 0; i < kCap; ++i) {
        auto row = randomRow(rng, kDims, 64);
        std::uint32_t a = table.insert(row.data(), kDims, 10, 0.25, 6);
        std::uint32_t b = loaded.insert(row.data(), kDims, 10, 0.25,
                                        6);
        ASSERT_EQ(a, b) << "insert " << i;
    }
    // And the state streams must still agree byte for byte.
    StateWriter wA, wB;
    table.saveState(wA);
    loaded.saveState(wB);
    EXPECT_EQ(wA.buffer(), wB.buffer());
}
