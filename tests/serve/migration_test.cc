/**
 * @file
 * Crash-consistent tenant-migration tests: a migrate-out /
 * migrate-in handoff must leave every tenant's phase-ID stream
 * byte-identical to an uninterrupted batch run, carry the full
 * counter block across, and reject every shape of damaged bundle —
 * torn manifest, truncated or bit-flipped checkpoint, a checkpoint
 * of an older layout, missing file, missing manifest — with a
 * recoverable error and nothing partially applied.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "common/status.hh"
#include "serve/migration.hh"
#include "serve/service.hh"

using namespace tpcp;
using namespace tpcp::serve;

namespace
{

constexpr unsigned kTenants = 5;
constexpr std::size_t kPackets = 80;
constexpr std::size_t kHandoff = 40; // migrate after this interval

std::string
tempDir(const std::string &name)
{
    std::string dir = std::string(::testing::TempDir()) + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

ServeOptions
migrationOptions()
{
    ServeOptions opts;
    opts.producers = 2;
    opts.registry.maxResident = kTenants;
    opts.registry.recordPhases = true;
    return opts;
}

/** Replays stream intervals [from, to) for every tenant, lockstep,
 * and drains to completion. */
void
feed(ServiceLoop &loop, const EncodedStream &stream,
     std::size_t from, std::size_t to)
{
    std::vector<std::uint8_t> frame;
    for (std::size_t i = from; i < to; ++i) {
        for (std::uint64_t t = 0; t < kTenants; ++t) {
            frame = stream[i];
            restampPacket(frame.data(), t, i);
            const unsigned p =
                static_cast<unsigned>(t % loop.numPartitions());
            ASSERT_TRUE(loop.ring(p).tryPush(
                frame.data(),
                static_cast<std::uint32_t>(frame.size())));
        }
        loop.runCycle();
    }
    for (unsigned p = 0; p < loop.numPartitions(); ++p)
        loop.producerDone(p);
    while (loop.runCycle() != 0) {
    }
}

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const std::string &path,
         const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Runs the first half on a fresh service and migrates it out.
 * Returns the source loop (for counter comparison). */
std::unique_ptr<ServiceLoop>
runFirstHalfAndMigrate(const EncodedStream &stream,
                       const std::string &bundle)
{
    auto loop = std::make_unique<ServiceLoop>(migrationOptions());
    feed(*loop, stream, 0, kHandoff);
    loop->migrateOut(bundle);
    return loop;
}

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

TEST(Migration, RoundTripPreservesIdentityAndCounters)
{
    const ServeOptions opts = migrationOptions();
    const unsigned dims = opts.registry.tracker.classifier.numCounters;
    const EncodedStream stream =
        encodeSyntheticStream(3, kPackets, dims);
    const std::string bundle = tempDir("mig_bundle");

    auto src = runFirstHalfAndMigrate(stream, bundle);
    ASSERT_TRUE(std::filesystem::exists(bundle + "/" +
                                        kMigrationManifest));

    // Destination service, same paper config: adopt the bundle,
    // then replay the second half.
    ServiceLoop dst(opts);
    EXPECT_EQ(dst.migrateIn(bundle), std::size_t{kTenants});
    feed(dst, stream, kHandoff, kPackets);

    const std::vector<PhaseId> expect =
        batchPhaseStream(stream, opts.registry.tracker);
    for (std::uint64_t t = 0; t < kTenants; ++t) {
        // The destination records only the second half; the source
        // recorded the first. Concatenated they must equal batch.
        std::vector<PhaseId> joined = src->phaseStream(t);
        const std::vector<PhaseId> &tail = dst.phaseStream(t);
        joined.insert(joined.end(), tail.begin(), tail.end());
        EXPECT_EQ(joined, expect) << "tenant " << t;

        // Counters carried across: lifetime packets accumulate.
        EXPECT_EQ(dst.tenantCounters(t).packets, kPackets);
        EXPECT_GE(dst.tenantCounters(t).resumes, 1u)
            << "tenant should resume from the bundled checkpoint";
    }
    // The service totals count only what dst itself delivered: the
    // adopted lifetime counters live in the tenant records alone.
    const ServeCounters c = dst.counters();
    EXPECT_EQ(c.packets, std::uint64_t{kTenants} * (kPackets - kHandoff));
    EXPECT_EQ(c.rejectedPackets, 0u);
    EXPECT_EQ(c.lostUpstream, 0u);
}

TEST(Migration, TruncatedManifestRejectedBeforeAnythingApplied)
{
    const ServeOptions opts = migrationOptions();
    const unsigned dims = opts.registry.tracker.classifier.numCounters;
    const EncodedStream stream =
        encodeSyntheticStream(4, kPackets, dims);
    const std::string bundle = tempDir("mig_t_bundle");
    runFirstHalfAndMigrate(stream, bundle);

    const std::string manifest = bundle + "/" + kMigrationManifest;
    const std::vector<std::uint8_t> good = readAll(manifest);
    ASSERT_GT(good.size(), 8u);

    // A handful of torn-write lengths, including the pathological
    // ones (empty, header-only, one byte short).
    for (std::size_t len :
         {std::size_t{0}, std::size_t{4}, good.size() / 2,
          good.size() - 1}) {
        writeAll(manifest,
                 {good.begin(),
                  good.begin() + static_cast<std::ptrdiff_t>(len)});
        ServiceLoop dst(opts);
        EXPECT_THROW(dst.migrateIn(bundle), Error)
            << "manifest truncated to " << len << " bytes";
        // Nothing applied: the service still works from scratch.
        EXPECT_EQ(dst.allTenantIds().size(), 0u);
    }
}

TEST(Migration, BitFlippedCheckpointRejected)
{
    const ServeOptions opts = migrationOptions();
    const unsigned dims = opts.registry.tracker.classifier.numCounters;
    const EncodedStream stream =
        encodeSyntheticStream(5, kPackets, dims);
    const std::string bundle = tempDir("mig_f_bundle");
    runFirstHalfAndMigrate(stream, bundle);

    const std::string victim =
        bundle + "/" + tenantCheckpointFile(2);
    std::vector<std::uint8_t> bytes = readAll(victim);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x10;
    writeAll(victim, bytes);

    ServiceLoop dst(opts);
    EXPECT_THROW(dst.migrateIn(bundle), Error);
    EXPECT_EQ(dst.allTenantIds().size(), 0u);
}

TEST(Migration, CheckpointOfTheOldVersionRejected)
{
    const ServeOptions opts = migrationOptions();
    const unsigned dims = opts.registry.tracker.classifier.numCounters;
    const EncodedStream stream =
        encodeSyntheticStream(7, kPackets, dims);
    const std::string bundle = tempDir("mig_v_bundle");
    runFirstHalfAndMigrate(stream, bundle);

    // A bundle whose manifest is intact but whose last checkpoint was
    // sealed by version 1: every tenant before it checks out, and
    // still none may be adopted.
    std::vector<MigratedTenant> tenants = loadMigrationBundle(bundle);
    ASSERT_EQ(tenants.size(), std::size_t{kTenants});
    ASSERT_FALSE(tenants.back().checkpoint.empty());
    tenants.back().checkpoint =
        versionOneImage(tenants.back().checkpoint, dims);
    const std::string old = tempDir("mig_v1_bundle");
    writeMigrationBundle(old, tenants);

    ServiceLoop dst(opts);
    EXPECT_THROW(dst.migrateIn(old), Error);
    EXPECT_EQ(dst.allTenantIds().size(), 0u);
}

TEST(Migration, MissingCheckpointRejected)
{
    const ServeOptions opts = migrationOptions();
    const unsigned dims = opts.registry.tracker.classifier.numCounters;
    const EncodedStream stream =
        encodeSyntheticStream(6, kPackets, dims);
    const std::string bundle = tempDir("mig_m_bundle");
    runFirstHalfAndMigrate(stream, bundle);

    std::filesystem::remove(bundle + "/" + tenantCheckpointFile(1));
    ServiceLoop dst(opts);
    EXPECT_THROW(dst.migrateIn(bundle), Error);
}

TEST(Migration, MissingManifestMeansNoBundle)
{
    // The crash-before-rename shape: checkpoint copies exist but the
    // manifest never committed. The bundle must be unimportable.
    const ServeOptions opts = migrationOptions();
    const unsigned dims = opts.registry.tracker.classifier.numCounters;
    const EncodedStream stream =
        encodeSyntheticStream(7, kPackets, dims);
    const std::string bundle = tempDir("mig_n_bundle");
    runFirstHalfAndMigrate(stream, bundle);

    std::filesystem::remove(bundle + "/" + kMigrationManifest);
    ServiceLoop dst(opts);
    EXPECT_THROW(dst.migrateIn(bundle), Error);
}

TEST(Migration, AdoptingExistingTenantRejected)
{
    RegistryConfig rc;
    rc.maxResident = 2;
    TenantRegistry registry(rc);
    IntervalPacket pkt;
    pkt.tenant = 3;
    pkt.seq = 0;
    pkt.counters.assign(rc.tracker.classifier.numCounters, 50);
    pkt.total = 5000;
    pkt.cpi = 1.0;
    registry.deliverPacket(pkt);

    MigratedTenant m;
    m.id = 3;
    EXPECT_THROW(registry.adoptTenant(m), Error);
}
