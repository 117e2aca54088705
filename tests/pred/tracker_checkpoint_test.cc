/**
 * @file
 * Tests for checkpointing a whole PhaseTracker in memory, the way the
 * serve registry parks an evicted tenant: PhaseTracker::saveState
 * sealed by sealStateFile, then parseStateFile + loadState. A resumed
 * tracker continues bit-identically to the original, and an image
 * with any single corrupted byte, a truncated image or an empty one
 * is refused by the envelope instead of silently restoring garbage.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/state_io.hh"
#include "common/status.hh"
#include "pred/phase_tracker.hh"

using namespace tpcp;

namespace
{

constexpr std::uint32_t kMagic = 0x54534554; // "TEST"
constexpr std::uint32_t kVersion = 1;

std::vector<std::uint32_t>
rawFor(int phase)
{
    std::vector<std::uint32_t> raw(16, 0);
    for (int i = 0; i < 4; ++i)
        raw[(phase * 4 + i) % 16] = 2500;
    return raw;
}

/** Feeds intervals [from, to) of a deterministic two-phase stream. */
void
feed(pred::PhaseTracker &t, int from, int to,
     std::vector<PhaseId> *phases = nullptr)
{
    for (int i = from; i < to; ++i) {
        int phase = (i / 10) % 2;
        pred::PhaseTrackerOutput out =
            t.onIntervalRaw(rawFor(phase), 10000, 1.0 + phase);
        if (phases)
            phases->push_back(out.classification.phase);
    }
}

std::vector<std::uint8_t>
seal(const pred::PhaseTracker &t)
{
    StateWriter w;
    t.saveState(w);
    return sealStateFile(kMagic, kVersion, w);
}

void
resume(const std::vector<std::uint8_t> &image, pred::PhaseTracker &t)
{
    const std::vector<std::uint8_t> payload =
        parseStateFile(image, kMagic, kVersion, "tracker");
    StateReader r(payload);
    t.loadState(r);
    EXPECT_TRUE(r.atEnd());
}

} // namespace

TEST(TrackerCheckpoint, ResumedTrackerContinuesIdentically)
{
    pred::PhaseTracker a;
    feed(a, 0, 60);
    pred::PhaseTracker b;
    resume(seal(a), b);
    EXPECT_EQ(b.intervals(), a.intervals());

    // Continue both for another 60 intervals: classifications and
    // predictions must stay in lockstep interval by interval.
    for (int i = 60; i < 120; ++i) {
        int phase = (i / 10) % 2;
        pred::PhaseTrackerOutput oa =
            a.onIntervalRaw(rawFor(phase), 10000, 1.0 + phase);
        pred::PhaseTrackerOutput ob =
            b.onIntervalRaw(rawFor(phase), 10000, 1.0 + phase);
        EXPECT_EQ(oa.classification.phase, ob.classification.phase)
            << "interval " << i;
        EXPECT_EQ(oa.nextPhase.phase, ob.nextPhase.phase)
            << "interval " << i;
        EXPECT_EQ(oa.phaseChanged, ob.phaseChanged) << "interval "
                                                    << i;
    }
    // Bit-identical state, not only identical outputs.
    EXPECT_EQ(seal(a), seal(b));
}

TEST(TrackerCheckpoint, ResumeMatchesUninterruptedRun)
{
    std::vector<PhaseId> uninterrupted;
    {
        pred::PhaseTracker t;
        feed(t, 0, 120, &uninterrupted);
    }

    std::vector<PhaseId> split;
    std::vector<std::uint8_t> image;
    {
        pred::PhaseTracker t;
        feed(t, 0, 47, &split);
        image = seal(t);
    }
    {
        pred::PhaseTracker t;
        resume(image, t);
        feed(t, 47, 120, &split);
    }
    EXPECT_EQ(split, uninterrupted);
}

TEST(TrackerCheckpoint, AnySingleCorruptByteRejected)
{
    pred::PhaseTracker t;
    feed(t, 0, 30);
    const std::vector<std::uint8_t> clean = seal(t);
    ASSERT_GT(clean.size(), 20u);
    for (std::size_t i = 0; i < clean.size(); ++i) {
        std::vector<std::uint8_t> bad = clean;
        bad[i] = static_cast<std::uint8_t>(bad[i] ^ 0x01);
        pred::PhaseTracker fresh;
        EXPECT_THROW(resume(bad, fresh), Error)
            << "flipped byte " << i << " of " << clean.size()
            << " not detected";
    }
}

TEST(TrackerCheckpoint, TruncationAndMissingFileRejected)
{
    pred::PhaseTracker t;
    feed(t, 0, 30);
    std::vector<std::uint8_t> image = seal(t);
    image.resize(image.size() / 2);
    pred::PhaseTracker fresh;
    EXPECT_THROW(resume(image, fresh), Error);
    // A lost image leaves nothing to parse.
    EXPECT_THROW(resume({}, fresh), Error);
}
