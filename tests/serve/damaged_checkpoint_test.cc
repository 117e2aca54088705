/**
 * @file
 * Resume-with-damaged-checkpoint coverage: an evicted tenant whose
 * checkpoint image is missing, truncated (at *every* possible
 * length), CRC-corrupt, another tenant's or sealed by an older
 * layout must fail its resume with a recoverable tpcp::Error — counted per tenant and registry-wide —
 * while every other tenant keeps serving, and a restored image must
 * resume cleanly afterwards with an unchanged phase stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "common/status.hh"
#include "serve/service.hh"

using namespace tpcp;
using namespace tpcp::serve;

namespace
{

/** A registry with tenant 1 evicted (its image parked) and tenant 2
 * resident, plus the packet sequence cursor for each. */
struct Fixture
{
    RegistryConfig rc;
    std::unique_ptr<TenantRegistry> registry;
    EncodedStream stream;
    std::uint64_t seq1 = 0;
    std::uint64_t seq2 = 0;

    Fixture()
    {
        rc.maxResident = 1; // one resident: activations force evictions
        rc.recordPhases = true;
        registry = std::make_unique<TenantRegistry>(rc);
        stream = encodeSyntheticStream(
            9, 60, rc.tracker.classifier.numCounters);
    }

    DeliverResult
    deliver(std::uint64_t tenant, std::uint64_t &seq)
    {
        IntervalPacket pkt;
        decodePacket(stream[seq].data(), stream[seq].size(), pkt);
        pkt.tenant = tenant;
        pkt.seq = seq;
        DeliverResult r = registry->deliverPacket(pkt);
        ++seq;
        return r;
    }
};

/**
 * @p image laid out and sealed as version 1 wrote it: the tracker
 * image then began with the classifier's accumulator block (u32
 * counters, u32 width, the counters, u64 total), all zero in serve.
 */
std::vector<std::uint8_t>
versionOneImage(const std::vector<std::uint8_t> &image, unsigned counters)
{
    const std::vector<std::uint8_t> payload = parseStateFile(
        image, kTenantCheckpointMagic, kTenantCheckpointVersion, "image");
    StateWriter w;
    w.raw(payload.data(), 8); // tenant id
    w.u32(counters);
    w.u32(24);
    for (unsigned i = 0; i < counters; ++i)
        w.u32(0);
    w.u64(0);
    w.raw(payload.data() + 8, payload.size() - 8);
    return sealStateFile(kTenantCheckpointMagic, 1, w);
}

} // namespace

TEST(DamagedCheckpoint, MissingImageFailsResumeRecoverably)
{
    Fixture fx;
    fx.deliver(1, fx.seq1); // tenant 1 resident
    fx.deliver(2, fx.seq2); // evicts 1 (one resident), 2 resident

    fx.registry->checkpointImage(1).clear();
    // Tenant 1's next packet needs a resume; the image is gone.
    EXPECT_THROW(fx.deliver(1, fx.seq1), Error);
    EXPECT_EQ(fx.registry->tenantCounters(1).resumeFailures, 1u);
    EXPECT_EQ(fx.registry->counters().resumeFailures, 1u);
    // The failed packet was consumed by the throw; don't replay it.
    // Tenant 2 is completely unaffected.
    EXPECT_EQ(fx.deliver(2, fx.seq2).status,
              DeliverStatus::Delivered);
}

TEST(DamagedCheckpoint, EveryTruncationLengthFailsRecoverably)
{
    Fixture fx;
    for (int i = 0; i < 8; ++i)
        fx.deliver(1, fx.seq1);
    fx.deliver(2, fx.seq2); // evicts tenant 1

    std::vector<std::uint8_t> &image = fx.registry->checkpointImage(1);
    const std::vector<std::uint8_t> good = image;
    ASSERT_GT(good.size(), 16u);

    // Property: *no* truncation length resumes, crashes, or stays
    // resident — every torn image surfaces as a counted, recoverable
    // error, and the resident tenant keeps serving throughout.
    for (std::size_t len = 0; len < good.size(); ++len) {
        image.assign(good.begin(),
                     good.begin() + static_cast<std::ptrdiff_t>(len));
        IntervalPacket pkt;
        decodePacket(fx.stream[fx.seq1].data(),
                     fx.stream[fx.seq1].size(), pkt);
        pkt.tenant = 1;
        pkt.seq = fx.seq1;
        EXPECT_THROW(fx.registry->deliverPacket(pkt), Error)
            << "resumed from an image truncated to " << len
            << " bytes";
        EXPECT_EQ(fx.registry->numResident(), 1u)
            << "failed resume left a tracker resident at length " << len;
    }
    EXPECT_EQ(fx.registry->tenantCounters(1).resumeFailures,
              good.size());

    // Restore the intact image: the resume succeeds and the stream
    // continues exactly where it left off.
    image = good;
    EXPECT_EQ(fx.deliver(1, fx.seq1).status,
              DeliverStatus::Delivered);
    EXPECT_EQ(fx.registry->tenantCounters(1).resumes, 1u);
    const std::vector<PhaseId> expect = batchPhaseStream(
        {fx.stream.begin(),
         fx.stream.begin() + static_cast<std::ptrdiff_t>(fx.seq1)},
        fx.rc.tracker);
    EXPECT_EQ(fx.registry->phaseStream(1), expect);
}

TEST(DamagedCheckpoint, BitCorruptionFailsChecksum)
{
    Fixture fx;
    for (int i = 0; i < 4; ++i)
        fx.deliver(1, fx.seq1);
    fx.deliver(2, fx.seq2);

    std::vector<std::uint8_t> &image = fx.registry->checkpointImage(1);
    const std::vector<std::uint8_t> good = image;

    // Sample single-bit flips across the whole image (every 7th byte
    // keeps the test fast while covering header, payload and CRC).
    for (std::size_t pos = 0; pos < good.size(); pos += 7) {
        image = good;
        image[pos] ^= 0x04;
        IntervalPacket pkt;
        decodePacket(fx.stream[fx.seq1].data(),
                     fx.stream[fx.seq1].size(), pkt);
        pkt.tenant = 1;
        pkt.seq = fx.seq1;
        EXPECT_THROW(fx.registry->deliverPacket(pkt), Error)
            << "accepted an image with a flipped bit at byte " << pos;
    }
    image = good;
    EXPECT_EQ(fx.deliver(1, fx.seq1).status,
              DeliverStatus::Delivered);
}

TEST(DamagedCheckpoint, WrongTenantCheckpointRejected)
{
    Fixture fx;
    fx.deliver(1, fx.seq1);
    fx.deliver(2, fx.seq2); // evicts 1
    fx.deliver(1, fx.seq1); // evicts 2, resumes 1
    const std::vector<std::uint8_t> image2 =
        fx.registry->checkpointImage(2);
    ASSERT_FALSE(image2.empty());

    // Evict tenant 1 again by touching tenant 2, then plant 2's
    // (valid, wrong-identity) image as 1's.
    fx.deliver(2, fx.seq2); // evicts 1, resumes 2
    fx.registry->checkpointImage(1) = image2;
    EXPECT_THROW(fx.deliver(1, fx.seq1), Error)
        << "accepted a checkpoint recorded for another tenant";
    EXPECT_GE(fx.registry->tenantCounters(1).resumeFailures, 1u);
}

TEST(DamagedCheckpoint, SealedImageIsTheStateFileBytes)
{
    // The parked image is exactly what writeStateFile puts on disk
    // for the same payload, so bundle checkpoint files stay
    // interchangeable with those of a file-backed registry.
    Fixture fx;
    for (int i = 0; i < 5; ++i)
        fx.deliver(1, fx.seq1);
    pred::PhaseTracker tracker(fx.rc.tracker);
    IntervalPacket pkt;
    for (std::uint64_t k = 0; k < fx.seq1; ++k) {
        decodePacket(fx.stream[k].data(), fx.stream[k].size(), pkt);
        tracker.onIntervalRaw(pkt.counters.data(), pkt.counters.size(),
                              pkt.total, pkt.cpi);
    }
    fx.deliver(2, fx.seq2); // evicts tenant 1

    StateWriter w;
    w.u64(1);
    tracker.saveState(w);
    const std::string path =
        std::string(::testing::TempDir()) + "sealed_image.ckpt";
    ASSERT_TRUE(writeStateFile(path, kTenantCheckpointMagic,
                               kTenantCheckpointVersion, w));
    EXPECT_EQ(fx.registry->checkpointImage(1), readFile(path));
    std::remove(path.c_str());
}

TEST(DamagedCheckpoint, ImageOfTheOldVersionFailsResume)
{
    Fixture fx;
    for (int i = 0; i < 4; ++i)
        fx.deliver(1, fx.seq1);
    fx.deliver(2, fx.seq2); // evicts tenant 1

    std::vector<std::uint8_t> &image = fx.registry->checkpointImage(1);
    const std::vector<std::uint8_t> good = image;
    ASSERT_EQ(kTenantCheckpointVersion, 2u);
    image = versionOneImage(good, fx.rc.tracker.classifier.numCounters);
    try {
        fx.deliver(1, fx.seq1);
        ADD_FAILURE() << "resumed from a version-1 image";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "version 1 unsupported (expected 2)"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(fx.registry->tenantCounters(1).resumeFailures, 1u);
    EXPECT_EQ(fx.registry->counters().resumeFailures, 1u);
    EXPECT_EQ(fx.registry->numResident(), 1u);

    image = good;
    EXPECT_EQ(fx.deliver(1, fx.seq1).status, DeliverStatus::Delivered);
}
