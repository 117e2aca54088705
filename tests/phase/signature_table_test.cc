/**
 * @file
 * Unit tests for the Past Signature Table: threshold matching,
 * best-vs-first match policies, LRU replacement, per-entry state,
 * index stability of the structure-of-arrays storage, and the
 * eviction/reset semantics the classifier depends on.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "common/status.hh"
#include "phase/signature_table.hh"

using namespace tpcp;
using namespace tpcp::phase;

namespace
{

Signature
sig(std::vector<std::uint8_t> dims)
{
    return Signature(std::move(dims), 6);
}

} // namespace

TEST(SignatureTable, EmptyNoMatch)
{
    SignatureTable t(32, 6);
    EXPECT_FALSE(t.match(sig({1, 2, 3}), MatchPolicy::BestMatch));
    EXPECT_EQ(t.size(), 0u);
}

TEST(SignatureTable, InsertThenExactMatch)
{
    SignatureTable t(32, 6);
    t.insert(sig({10, 20, 30}), 0.25);
    auto m = t.match(sig({10, 20, 30}), MatchPolicy::BestMatch);
    ASSERT_TRUE(m);
    EXPECT_DOUBLE_EQ(m.distance, 0.0);
    EXPECT_EQ(t.size(), 1u);
}

TEST(SignatureTable, ThresholdIsExclusive)
{
    SignatureTable t(32, 6);
    // weight 40 + 40; a distance of 20 -> difference 0.25 exactly.
    t.insert(sig({40, 0}), 0.25);
    EXPECT_FALSE(t.match(sig({20, 20}), MatchPolicy::BestMatch))
        << "difference must be strictly below the threshold";
    // distance 10 -> difference 10/75 ~ 0.133 < 0.25: matches.
    EXPECT_TRUE(t.match(sig({35, 0}), MatchPolicy::BestMatch));
}

TEST(SignatureTable, MatchReportsNormalizedDistance)
{
    SignatureTable t(32, 6);
    t.insert(sig({40, 0}), 0.25);
    auto m = t.match(sig({35, 0}), MatchPolicy::BestMatch);
    ASSERT_TRUE(m);
    EXPECT_DOUBLE_EQ(m.distance, 5.0 / 75.0);
}

TEST(SignatureTable, BestMatchPicksClosest)
{
    SignatureTable t(32, 6);
    std::uint32_t far = t.insert(sig({30, 10}), 1.0);
    t.meta(far).phase = 1;
    std::uint32_t near = t.insert(sig({22, 18}), 1.0);
    t.meta(near).phase = 2;
    auto best = t.match(sig({20, 20}), MatchPolicy::BestMatch);
    ASSERT_TRUE(best);
    EXPECT_EQ(t.meta(best.index).phase, 2u);
}

TEST(SignatureTable, FirstMatchPicksFirstInTableOrder)
{
    SignatureTable t(32, 6);
    std::uint32_t first = t.insert(sig({30, 10}), 1.0);
    t.meta(first).phase = 1;
    std::uint32_t closer = t.insert(sig({22, 18}), 1.0);
    t.meta(closer).phase = 2;
    auto got = t.match(sig({20, 20}), MatchPolicy::FirstMatch);
    ASSERT_TRUE(got);
    EXPECT_EQ(t.meta(got.index).phase, 1u)
        << "prior work [25] takes the first satisfying entry";
}

TEST(SignatureTable, PerEntryThresholdRespected)
{
    SignatureTable t(32, 6);
    std::uint32_t tight = t.insert(sig({40, 0}), 0.05);
    t.meta(tight).phase = 1;
    // Difference ~0.07 fails the tightened 5% threshold.
    EXPECT_FALSE(t.match(sig({37, 3}), MatchPolicy::BestMatch));
    t.setThreshold(tight, 0.25);
    EXPECT_TRUE(t.match(sig({37, 3}), MatchPolicy::BestMatch));
}

TEST(SignatureTable, LruEvictionAtCapacity)
{
    SignatureTable t(2, 6);
    std::uint32_t a = t.insert(sig({63, 0}), 0.25);
    t.meta(a).phase = 1;
    std::uint32_t b = t.insert(sig({0, 63}), 0.25);
    t.meta(b).phase = 2;
    // Touch A so B is LRU; inserting C evicts B.
    t.touch(t.match(sig({63, 0}), MatchPolicy::BestMatch).index);
    t.insert(sig({32, 32}), 0.25);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.evictions(), 1u);
    EXPECT_TRUE(t.match(sig({63, 0}), MatchPolicy::BestMatch));
    EXPECT_FALSE(t.match(sig({0, 63}), MatchPolicy::BestMatch))
        << "B was evicted";
}

TEST(SignatureTable, EvictionResetsEntryState)
{
    SignatureTable t(1, 6);
    std::uint32_t a = t.insert(sig({63, 0}), 0.25);
    t.meta(a).phase = 7;
    t.meta(a).minCounter.increment(5);
    t.setThreshold(a, 0.03125);
    t.meta(a).cpi.push(1.5);
    t.meta(a).cpi.push(2.5);

    // Inserting a new signature evicts A and must hand back a
    // factory-fresh slot: transition phase, min counter restarted at
    // the inserting sighting, the *new* threshold, no CPI history.
    std::uint32_t b = t.insert(sig({0, 63}), 0.25);
    EXPECT_EQ(t.evictions(), 1u);
    EXPECT_EQ(t.meta(b).phase, transitionPhaseId);
    EXPECT_EQ(t.meta(b).minCounter.value(), 1u)
        << "the inserting interval is the first sighting";
    EXPECT_DOUBLE_EQ(t.threshold(b), 0.25);
    EXPECT_EQ(t.meta(b).cpi.count(), 0u);
    EXPECT_EQ(t.signatureAt(b), sig({0, 63}));
}

TEST(SignatureTable, LruTickMonotonicAcrossMatchAndInsert)
{
    SignatureTable t(8, 6);
    std::uint32_t a = t.insert(sig({63, 0}), 1.0);
    std::uint32_t b = t.insert(sig({0, 63}), 1.0);
    EXPECT_LT(t.meta(a).lastUse, t.meta(b).lastUse)
        << "later insert is more recently used";
    std::uint64_t b_use = t.meta(b).lastUse;

    // match() must not advance LRU state by itself...
    t.match(sig({63, 0}), MatchPolicy::BestMatch);
    EXPECT_EQ(t.meta(b).lastUse, b_use);

    // ...but touch() after a match moves the entry ahead of every
    // prior use, and a subsequent insert is newer still.
    t.touch(a);
    EXPECT_GT(t.meta(a).lastUse, b_use);
    std::uint32_t c = t.insert(sig({32, 32}), 1.0);
    EXPECT_GT(t.meta(c).lastUse, t.meta(a).lastUse);
}

TEST(SignatureTable, UnboundedNeverEvicts)
{
    SignatureTable t(0, 6);
    for (int i = 0; i < 100; ++i) {
        std::vector<std::uint8_t> d(16, 0);
        d[i % 16] = static_cast<std::uint8_t>(1 + i / 16);
        t.insert(sig(d), 0.25);
    }
    EXPECT_EQ(t.size(), 100u);
    EXPECT_EQ(t.evictions(), 0u);
}

TEST(SignatureTable, IndexStableWhileUnboundedTableGrows)
{
    // Regression for the pointer-stability hazard: with cap == 0 the
    // old SigEntry* returns were invalidated when the entries vector
    // reallocated. Entry references are indices now; hold one across
    // growth far past the initial capacity and keep using it.
    SignatureTable t(0, 6);
    std::uint32_t held = t.insert(sig({63, 0, 0, 0}), 0.25);
    t.meta(held).phase = 42;
    t.meta(held).cpi.push(1.25);

    for (int i = 0; i < 4096; ++i) {
        std::vector<std::uint8_t> d(4, 0);
        d[i % 4] = static_cast<std::uint8_t>(1 + i % 62);
        d[(i + 1) % 4] = static_cast<std::uint8_t>(1 + (i / 62) % 62);
        t.insert(sig(d), 0.25);
    }
    EXPECT_EQ(t.size(), 4097u);

    // The held reference still designates the original entry.
    EXPECT_EQ(t.meta(held).phase, 42u);
    EXPECT_EQ(t.meta(held).cpi.count(), 1u);
    EXPECT_DOUBLE_EQ(t.meta(held).cpi.mean(), 1.25);
    EXPECT_EQ(t.signatureAt(held), sig({63, 0, 0, 0}));
    EXPECT_EQ(t.weightAt(held), 63u);
    auto m = t.match(sig({63, 0, 0, 0}), MatchPolicy::BestMatch);
    ASSERT_TRUE(m);
    EXPECT_EQ(m.index, held);
}

TEST(SignatureTable, MinCounterWidthFromConstruction)
{
    SignatureTable t(4, 3);
    std::uint32_t e = t.insert(sig({1}), 0.25);
    EXPECT_EQ(t.meta(e).minCounter.max(), 7u);
}

TEST(SignatureTable, InsertCountsTheInsertingSighting)
{
    // Paper section 4.1/4.4: promotion requires the signature to have
    // been *seen* min_count times, and the inserting interval is the
    // first sighting. A fresh entry therefore starts at 1, not 0.
    SignatureTable t(4, 6);
    std::uint32_t e = t.insert(sig({5, 5}), 0.25);
    EXPECT_EQ(t.meta(e).minCounter.value(), 1u);
}

TEST(SignatureTable, ReplaceSignatureTracksDrift)
{
    SignatureTable t(4, 6);
    std::uint32_t e = t.insert(sig({40, 0}), 0.25);
    Signature drifted = sig({44, 2});
    t.replaceSignature(e, drifted.data(), drifted.size(),
                       drifted.weight());
    EXPECT_EQ(t.signatureAt(e), drifted);
    EXPECT_EQ(t.weightAt(e), 46u);
    auto m = t.match(sig({44, 2}), MatchPolicy::BestMatch);
    ASSERT_TRUE(m);
    EXPECT_DOUBLE_EQ(m.distance, 0.0);
}

TEST(SignatureTable, ClearRemovesEverything)
{
    SignatureTable t(4, 6);
    t.insert(sig({1}), 0.25);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.evictions(), 0u);
    // The dimensionality is re-fixed by the next insert.
    t.insert(sig({1, 2, 3}), 0.25);
    EXPECT_TRUE(t.match(sig({1, 2, 3}), MatchPolicy::BestMatch));
}

TEST(SignatureTable, EarlyExitAgreesWithFullScan)
{
    // The running-bound early exit must be invisible: across a mix of
    // weights and thresholds (including exact-boundary distances) the
    // match decisions equal a naive full difference() scan.
    SignatureTable t(0, 6);
    std::vector<Signature> stored;
    for (unsigned i = 0; i < 64; ++i) {
        std::vector<std::uint8_t> d(8, 0);
        for (unsigned j = 0; j < 8; ++j)
            d[j] = static_cast<std::uint8_t>((i * 7 + j * 13) % 64);
        stored.push_back(sig(d));
        t.insert(stored.back(), 0.05 + 0.01 * (i % 23));
    }
    for (unsigned q = 0; q < 64; ++q) {
        std::vector<std::uint8_t> d(8, 0);
        for (unsigned j = 0; j < 8; ++j)
            d[j] = static_cast<std::uint8_t>((q * 11 + j * 5) % 64);
        Signature query = sig(d);

        // Naive reference: first index under threshold, and best
        // index by strictly-smaller distance.
        int ref_first = -1, ref_best = -1;
        double best_diff = 0.0;
        for (unsigned i = 0; i < 64; ++i) {
            double diff = query.difference(stored[i]);
            if (diff >= t.threshold(i))
                continue;
            if (ref_first < 0)
                ref_first = static_cast<int>(i);
            if (ref_best < 0 || diff < best_diff) {
                ref_best = static_cast<int>(i);
                best_diff = diff;
            }
        }

        auto first = t.match(query, MatchPolicy::FirstMatch);
        auto best = t.match(query, MatchPolicy::BestMatch);
        EXPECT_EQ(first ? static_cast<int>(first.index) : -1,
                  ref_first)
            << "query " << q;
        EXPECT_EQ(best ? static_cast<int>(best.index) : -1, ref_best)
            << "query " << q;
        if (best && ref_best >= 0) {
            EXPECT_DOUBLE_EQ(best.distance, best_diff)
                << "query " << q;
        }
    }
}

// ---- Soft-error model: per-row ECC, quarantine, repair ----

TEST(SignatureTableEcc, SingleFlipCorrectedInPlace)
{
    SignatureTable t(32, 6);
    std::uint32_t e = t.insert(sig({40, 20, 10, 5}), 0.25);
    t.flipSignatureBit(e, 10);
    EXPECT_TRUE(t.checkParityAt(e))
        << "a single-event flip is correctable, not a quarantine";
    EXPECT_EQ(t.eccCorrections(), 1u);
    EXPECT_FALSE(t.quarantinedAt(e));
    EXPECT_EQ(t.signatureAt(e), sig({40, 20, 10, 5}))
        << "the flipped bit was not restored";
    auto m = t.match(sig({40, 20, 10, 5}), MatchPolicy::BestMatch);
    ASSERT_TRUE(m);
    EXPECT_DOUBLE_EQ(m.distance, 0.0);
}

TEST(SignatureTableEcc, EveryBitPositionIsCorrectable)
{
    for (unsigned bit = 0; bit < 4 * 8; ++bit) {
        SignatureTable t(32, 6);
        std::uint32_t e = t.insert(sig({40, 20, 10, 5}), 0.25);
        t.flipSignatureBit(e, bit);
        EXPECT_TRUE(t.checkParityAt(e)) << "bit " << bit;
        EXPECT_EQ(t.signatureAt(e), sig({40, 20, 10, 5}))
            << "bit " << bit;
    }
}

TEST(SignatureTableEcc, MultiBitDamageQuarantines)
{
    SignatureTable t(32, 6);
    std::uint32_t e = t.insert(sig({40, 20}), 0.25);
    t.flipSignatureBit(e, 1);
    t.flipSignatureBit(e, 11);
    EXPECT_FALSE(t.checkParityAt(e));
    EXPECT_TRUE(t.quarantinedAt(e));
    EXPECT_EQ(t.numQuarantined(), 1u);
    EXPECT_EQ(t.eccCorrections(), 0u);
    // Quarantined entries are invisible to the clean match path...
    EXPECT_FALSE(t.match(sig({40, 20}), MatchPolicy::BestMatch));
    // ...but the syndrome-corrected quarantine matcher recovers the
    // true distance (0 for the original query) from the damaged row.
    Signature q = sig({40, 20});
    auto m = t.matchQuarantined(q.data(), q.size(), q.weight());
    ASSERT_TRUE(m);
    EXPECT_EQ(m.index, e);
    EXPECT_DOUBLE_EQ(m.distance, 0.0);
}

TEST(SignatureTableEcc, RepairKeepsMetadataAndLiftsQuarantine)
{
    SignatureTable t(32, 6);
    std::uint32_t e = t.insert(sig({40, 20}), 0.125);
    t.meta(e).phase = 5;
    t.meta(e).minCounter.increment(3);
    t.meta(e).cpi.push(1.5);
    t.flipSignatureBit(e, 0);
    t.flipSignatureBit(e, 9);
    ASSERT_FALSE(t.checkParityAt(e));

    Signature fresh = sig({41, 21});
    t.repairEntry(e, fresh.data(), fresh.size(), fresh.weight());
    EXPECT_FALSE(t.quarantinedAt(e));
    EXPECT_EQ(t.numQuarantined(), 0u);
    // The narrow metadata is ECC-protected: only the wide signature
    // bytes were lost to the fault.
    EXPECT_EQ(t.meta(e).phase, 5u);
    EXPECT_EQ(t.meta(e).minCounter.value(), 4u);
    EXPECT_EQ(t.meta(e).cpi.count(), 1u);
    EXPECT_DOUBLE_EQ(t.threshold(e), 0.125);
    EXPECT_EQ(t.signatureAt(e), fresh);
    EXPECT_TRUE(t.checkParityAt(e)) << "repair left stale check bits";
    EXPECT_TRUE(t.match(fresh, MatchPolicy::BestMatch));
}

TEST(SignatureTableEcc, ScrubCorrectsSinglesAndQuarantinesWider)
{
    SignatureTable t(32, 6);
    std::uint32_t a = t.insert(sig({10, 10}), 0.25);
    std::uint32_t b = t.insert(sig({20, 20}), 0.25);
    std::uint32_t c = t.insert(sig({30, 30}), 0.25);
    t.flipSignatureBit(a, 3);
    t.flipSignatureBit(b, 2);
    t.flipSignatureBit(b, 12);
    EXPECT_EQ(t.scrubParity(), 1u) << "only the double-flip entry "
                                      "should be newly quarantined";
    EXPECT_EQ(t.eccCorrections(), 1u);
    EXPECT_FALSE(t.quarantinedAt(a));
    EXPECT_TRUE(t.quarantinedAt(b));
    EXPECT_FALSE(t.quarantinedAt(c));
    EXPECT_EQ(t.signatureAt(a), sig({10, 10}));
    // A second scrub finds nothing new.
    EXPECT_EQ(t.scrubParity(), 0u);
}

TEST(SignatureTableEcc, ReplaceSignatureRefreshesCheckBits)
{
    // Signature creep rewrites the row every matched interval; the
    // check bits must follow or the next scrub would false-positive.
    SignatureTable t(4, 6);
    std::uint32_t e = t.insert(sig({40, 0}), 0.25);
    Signature drifted = sig({44, 2});
    t.replaceSignature(e, drifted.data(), drifted.size(),
                       drifted.weight());
    EXPECT_TRUE(t.checkParityAt(e));
    EXPECT_EQ(t.eccCorrections(), 0u);
}

TEST(SignatureTableEcc, EvictionIsQuarantineBlind)
{
    // Eviction must be pure LRU: preferring quarantined victims would
    // desynchronize table contents (and all later phase-ID
    // allocations) from a fault-free run of the same stream.
    SignatureTable t(2, 6);
    std::uint32_t a = t.insert(sig({63, 0}), 0.25);
    std::uint32_t b = t.insert(sig({0, 63}), 0.25);
    t.flipSignatureBit(b, 0);
    t.flipSignatureBit(b, 9);
    ASSERT_FALSE(t.checkParityAt(b));
    std::uint32_t c = t.insert(sig({32, 32}), 0.25);
    EXPECT_EQ(c, a) << "the LRU entry is the victim even though the "
                       "MRU one is quarantined";
    EXPECT_TRUE(t.quarantinedAt(b));
    EXPECT_EQ(t.numQuarantined(), 1u);
}

TEST(SignatureTableEcc, EvictingQuarantinedVictimClearsFlag)
{
    SignatureTable t(1, 6);
    std::uint32_t a = t.insert(sig({63, 0}), 0.25);
    t.flipSignatureBit(a, 0);
    t.flipSignatureBit(a, 9);
    ASSERT_FALSE(t.checkParityAt(a));
    ASSERT_EQ(t.numQuarantined(), 1u);

    std::uint32_t b = t.insert(sig({0, 63}), 0.25);
    EXPECT_EQ(b, a) << "the quarantined LRU slot is recycled";
    EXPECT_FALSE(t.quarantinedAt(b));
    EXPECT_EQ(t.numQuarantined(), 0u);
    EXPECT_TRUE(t.checkParityAt(b))
        << "recycled slot carries fresh check bits";
    EXPECT_EQ(t.match(sig({0, 63}), MatchPolicy::BestMatch).index, b);
}

TEST(SignatureTableEcc, StateRoundTripPreservesEccAndQuarantine)
{
    SignatureTable t(8, 6);
    std::uint32_t a = t.insert(sig({40, 20}), 0.25);
    std::uint32_t b = t.insert(sig({5, 50}), 0.25);
    t.meta(b).phase = 3;
    t.flipSignatureBit(a, 1);
    t.flipSignatureBit(a, 11);
    ASSERT_FALSE(t.checkParityAt(a));
    t.flipSignatureBit(b, 4);
    ASSERT_TRUE(t.checkParityAt(b));

    StateWriter w;
    t.saveState(w);
    SignatureTable u(8, 6);
    StateReader r(w.buffer());
    u.loadState(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(u.size(), 2u);
    EXPECT_TRUE(u.quarantinedAt(a));
    EXPECT_EQ(u.numQuarantined(), 1u);
    EXPECT_EQ(u.eccCorrections(), 1u);
    EXPECT_EQ(u.meta(b).phase, 3u);
    EXPECT_EQ(u.signatureAt(b), sig({5, 50}));
    // The quarantined entry's damaged bytes and syndrome survive the
    // round trip: the quarantine matcher still recovers it.
    Signature q = sig({40, 20});
    auto m = u.matchQuarantined(q.data(), q.size(), q.weight());
    ASSERT_TRUE(m);
    EXPECT_EQ(m.index, a);

    // A snapshot for different table geometry is refused.
    SignatureTable v(4, 6);
    StateReader r2(w.buffer());
    EXPECT_THROW(v.loadState(r2), Error);
}

// ---- The verified-table shortcut and the word-wise check codes ----

namespace
{

/** A full-byte (8 bits per dimension) signature of @p width bytes
 * whose bits vary across every byte and word position, including
 * each word's top bit. */
Signature
wideSig(std::size_t width)
{
    std::vector<std::uint8_t> dims(width);
    for (std::size_t j = 0; j < width; ++j)
        dims[j] = static_cast<std::uint8_t>(j % 7 == 6 ? 0xff
                                                       : j * 37 + 11);
    return Signature(std::move(dims), 8);
}

constexpr std::size_t kEccWidths[] = {1, 3, 8, 9, 15, 16, 32, 33, 64};

} // namespace

TEST(SignatureTableEcc, EverySingleFlipCorrectedAtEveryRowWidth)
{
    // Widths below, at and across 8-byte word boundaries cover the
    // word loop and the partial last word.
    for (std::size_t width : kEccWidths) {
        const Signature s = wideSig(width);
        for (unsigned bit = 0; bit < width * 8; ++bit) {
            SCOPED_TRACE("width " + std::to_string(width) + " bit " +
                         std::to_string(bit));
            SignatureTable t(32, 6);
            std::uint32_t e = t.insert(s, 0.25);
            t.flipSignatureBit(e, bit);
            EXPECT_TRUE(t.checkParityAt(e));
            EXPECT_EQ(t.eccCorrections(), 1u);
            EXPECT_EQ(t.signatureAt(e), s);

            SignatureTable u(32, 6);
            u.insert(wideSig(width), 0.25);
            std::uint32_t f = u.insert(s, 0.25);
            u.flipSignatureBit(f, bit);
            EXPECT_EQ(u.scrubParity(), 0u);
            EXPECT_EQ(u.eccCorrections(), 1u);
            EXPECT_EQ(u.numQuarantined(), 0u);
            EXPECT_EQ(u.signatureAt(f), s);
        }
    }
}

TEST(SignatureTableEcc, EveryDoubleFlipIn16ByteRowQuarantines)
{
    const Signature s = wideSig(16);
    for (unsigned a = 0; a < 16 * 8; ++a) {
        for (unsigned b = a + 1; b < 16 * 8; ++b) {
            SignatureTable t(32, 6);
            std::uint32_t e = t.insert(s, 0.25);
            t.flipSignatureBit(e, a);
            t.flipSignatureBit(e, b);
            ASSERT_FALSE(t.checkParityAt(e)) << a << "," << b;
            ASSERT_TRUE(t.quarantinedAt(e)) << a << "," << b;
            ASSERT_EQ(t.eccCorrections(), 0u) << a << "," << b;
        }
    }
}

TEST(SignatureTableEcc, FlipPendingAcrossSaveLoadIsCorrectedByScrub)
{
    // The verified flag is not saved: a restored table must re-check
    // its rows, or a flip pending at the snapshot would go unseen.
    const Signature s = wideSig(16);
    SignatureTable t(8, 6);
    std::uint32_t e = t.insert(s, 0.25);
    t.flipSignatureBit(e, 77);

    StateWriter w;
    t.saveState(w);
    SignatureTable u(8, 6);
    StateReader r(w.buffer());
    u.loadState(r);
    EXPECT_EQ(u.scrubParity(), 0u);
    EXPECT_EQ(u.eccCorrections(), 1u);
    EXPECT_EQ(u.signatureAt(e), s);
}

TEST(SignatureTableEcc, CleanCheckOfAnotherRowKeepsFlipPending)
{
    const Signature sa = wideSig(9);
    SignatureTable t(8, 6);
    std::uint32_t a = t.insert(sa, 0.25);
    std::uint32_t b = t.insert(wideSig(9), 0.25);
    t.flipSignatureBit(a, 70);
    EXPECT_TRUE(t.checkParityAt(b));
    EXPECT_EQ(t.eccCorrections(), 0u);
    EXPECT_TRUE(t.checkParityAt(a));
    EXPECT_EQ(t.eccCorrections(), 1u);
    EXPECT_EQ(t.signatureAt(a), sa);
}

TEST(SignatureTable, RestoreRefusesBitsPerDimensionOutsideOneToEight)
{
    // signatureAt() asserts on a width outside 1..8 bits.
    SignatureTable t(8, 6);
    StateWriter w;
    t.saveState(w);
    for (std::uint32_t bits : {0u, 9u}) {
        std::vector<std::uint8_t> bytes = w.buffer();
        // u32 capacity, u32 counter bits and u64 row width precede it.
        std::memcpy(bytes.data() + 16, &bits, sizeof(bits));
        SignatureTable u(8, 6);
        StateReader r(bytes);
        EXPECT_THROW(u.loadState(r), Error) << bits;
    }
}
