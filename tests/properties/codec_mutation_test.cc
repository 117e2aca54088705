/**
 * @file
 * Seeded multi-fault mutation test over the four binary decoders —
 * TPKT frames, `.tpcptrace` files (also the profile cache's files),
 * state_io envelopes and TMIG migration manifests — and over the
 * tracker state a resilience checkpoint restores, plus forged-count
 * regressions for the counts that size allocations.
 *
 * Each mutant stacks several faults on a valid sample: a multi-byte
 * splice from another sample, a duplicated range, or a forged field
 * after which every CRC and length the format carries is recomputed,
 * so the decoder's own validation, not the checksum, has to catch
 * the damage. The property: a mutant either decodes — and the
 * packet, trace and envelope decoders' results re-encode to exactly
 * the mutant's bytes — or it is rejected with tpcp::Error and leaves
 * no partial state.
 * A mutated resilience checkpoint, sealed with a valid CRC, either
 * resumes to the end of its campaign or raises tpcp::Error.
 * Seed and mutant count are fixed, so a failure replays exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "common/status.hh"
#include "fault/resilience.hh"
#include "serve/migration.hh"
#include "serve/packet.hh"
#include "trace/interval_profile.hh"
#include "trace/trace_file.hh"

using namespace tpcp;

namespace
{

using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t kSeed = 0x7470637066757a7aull;
constexpr unsigned kMutantsPerFormat = 300;

/** Envelope tag and version of the samples' state files. */
constexpr std::uint32_t kStateMagic = 0x74736574; // "test"
constexpr std::uint32_t kStateVersion = 3;

std::string
tempDir(const std::string &name)
{
    std::string dir = std::string(::testing::TempDir()) + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

Bytes
corpusFile(const std::string &rel)
{
    return readFile(std::string(TPCP_SOURCE_DIR) + "/tests/corpus/" +
                    rel);
}

trace::IntervalProfile
smallProfile()
{
    trace::IntervalProfile p("mut", "ooo", 1000, {4, 8});
    p.setMachineHash(0x1234abcd5678ef00ull);
    for (std::uint32_t i = 0; i < 3; ++i) {
        trace::IntervalRecord rec;
        rec.cpi = 1.0 + 0.25 * i;
        rec.insts = 1000;
        rec.accumTotal = 500 + i;
        std::vector<std::uint32_t> counters(4, 100u + i);
        counters.resize(4 + 8, 50u + i);
        p.push(rec, counters);
    }
    return p;
}

Bytes
samplePacket(std::uint32_t counters)
{
    std::vector<std::uint32_t> c(counters);
    for (std::uint32_t i = 0; i < counters; ++i)
        c[i] = 1000 * i + 7;
    Bytes out;
    serve::encodePacket(out, 3, 41, c.data(), counters, 100000, 1.25);
    return out;
}

/** A 60-interval profile alternating between two phases in blocks
 * of 10 intervals, for resilience campaigns. */
trace::IntervalProfile
campaignProfile()
{
    trace::IntervalProfile p("test/synth", "ooo", 1000, {16});
    for (std::size_t i = 0; i < 60; ++i) {
        trace::IntervalRecord rec;
        rec.cpi = 1.0 + (i / 10) % 2;
        rec.insts = 1000;
        rec.accumTotal = 10000;
        std::vector<std::uint32_t> counters(16, 625);
        counters[(i / 10) % 2] = 2500;
        p.push(rec, counters);
    }
    return p;
}

/** Options that checkpoint a campaign into @p ckpt at interval 50. */
fault::ResilienceOptions
campaignOptions(const std::string &ckpt)
{
    fault::ResilienceOptions opts;
    opts.dims = 16;
    opts.injector.seed = 42;
    opts.checkpointPath = ckpt;
    opts.checkpointAt = 50;
    return opts;
}

/** Writes a two-checkpoint, three-tenant bundle into @p bundle. */
void
writeSampleBundle(const std::string &bundle)
{
    std::vector<serve::MigratedTenant> tenants(3);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        serve::MigratedTenant &t = tenants[i];
        t.id = 1 + 6 * i;
        t.nextSeq = 40 + i;
        t.c.packets = 40 + i;
        t.c.phaseSwitches = i;
        t.quarantineRemaining = i == 2 ? 5 : 0;
        if (i == 2)
            continue;
        StateWriter w;
        w.u64(t.id);
        w.str("tracker state");
        t.checkpoint = sealStateFile(serve::kTenantCheckpointMagic,
                                     serve::kTenantCheckpointVersion, w);
    }
    serve::writeMigrationBundle(bundle, tenants);
}

void
put(Bytes &b, std::size_t at, const void *v, std::size_t n)
{
    std::memcpy(b.data() + at, v, n);
}

/** Recomputes the length and CRC of a state_io envelope. */
void
resealEnvelope(Bytes &b)
{
    if (b.size() < 20)
        return;
    const std::uint64_t len = b.size() - 20;
    const std::uint32_t crc = crc32(b.data() + 20, len);
    put(b, 8, &len, 8);
    put(b, 16, &crc, 4);
}

/** Recomputes the CRC of every length-framed block of a trace (the
 * header, then each record) as far as the declared lengths reach. */
void
resealTrace(Bytes &b)
{
    std::size_t at = 8;
    while (at + 4 <= b.size()) {
        std::uint32_t len;
        std::memcpy(&len, b.data() + at, 4);
        at += 4;
        if (len > b.size() - at || b.size() - at - len < 4)
            return;
        const std::uint32_t crc = crc32(b.data() + at, len);
        put(b, at + len, &crc, 4);
        at += len + 4;
    }
}

enum class Format
{
    Packet,
    Trace,
    Envelope,
    Manifest,
    /** A resilience checkpoint payload; writeStateFile() seals each
     * mutant in a fresh envelope. */
    Checkpoint
};

/** Stacks 2–4 random faults on a sample. */
class Mutator
{
  public:
    Mutator(std::uint64_t seed, const std::vector<Bytes> &donors)
        : rng(seed), donors(donors)
    {
    }

    Bytes
    mutate(Bytes b, Format format)
    {
        bool forged = false;
        const std::uint32_t faults = 2 + rng.nextBounded(3);
        for (std::uint32_t i = 0; i < faults; ++i) {
            switch (rng.nextBounded(3)) {
            case 0:
                splice(b);
                break;
            case 1:
                duplicate(b);
                break;
            default:
                forge(b);
                forged = true;
            }
        }
        if (forged && format == Format::Trace)
            resealTrace(b);
        if (forged &&
            (format == Format::Envelope || format == Format::Manifest))
            resealEnvelope(b);
        return b;
    }

  private:
    /** Uniform in [0, n); 0 when n is 0. */
    std::size_t
    pick(std::size_t n)
    {
        return n == 0 ? 0
                      : rng.nextBounded(static_cast<std::uint32_t>(n));
    }

    /** Replaces up to 16 bytes with up to 32 bytes of a donor. */
    void
    splice(Bytes &b)
    {
        const Bytes &d = donors[pick(donors.size())];
        const std::size_t at = pick(b.size() + 1);
        const std::size_t cut = std::min(b.size() - at, pick(17));
        const std::size_t from = pick(d.size() + 1);
        const std::size_t len = std::min(d.size() - from, pick(33));
        b.erase(b.begin() + at, b.begin() + at + cut);
        b.insert(b.begin() + at, d.begin() + from,
                 d.begin() + from + len);
    }

    /** Inserts a copy of a range of up to 64 bytes somewhere. */
    void
    duplicate(Bytes &b)
    {
        if (b.empty())
            return;
        const std::size_t from = pick(b.size());
        const std::size_t len =
            1 + pick(std::min<std::size_t>(b.size() - from, 64));
        const Bytes range(b.begin() + from, b.begin() + from + len);
        const std::size_t at = pick(b.size() + 1);
        b.insert(b.begin() + at, range.begin(), range.end());
    }

    /** Overwrites a 1-, 2-, 4- or 8-byte field with a boundary value
     * (or, one time in four, a random one). */
    void
    forge(Bytes &b)
    {
        static const std::uint64_t values[] = {
            0, 1, 0x7f, 0xff, 0xffff, 0x7fffffff, 0xffffffff,
            1ull << 32, 1ull << 40, ~0ull};
        const std::size_t width = std::size_t{1} << pick(4);
        if (b.size() < width)
            return;
        const std::size_t at = pick(b.size() - width + 1);
        const std::uint64_t v = pick(4) == 0
                                    ? rng.next64()
                                    : values[pick(std::size(values))];
        put(b, at, &v, width);
    }

    Rng rng;
    const std::vector<Bytes> &donors;
};

/** Outcome counts of one format's mutants. */
struct Tally
{
    unsigned decoded = 0;
    unsigned rejected = 0;
};

void
checkPacket(const Bytes &m, Tally &tally)
{
    std::uint64_t tenant = 77;
    serve::peekPacketTenant(m.data(), m.size(), tenant);
    serve::IntervalPacket pkt;
    pkt.tenant = pkt.seq = pkt.total = 99;
    try {
        serve::decodePacket(m.data(), m.size(), pkt);
    } catch (const Error &) {
        ++tally.rejected;
        EXPECT_EQ(pkt.tenant, 99u);
        EXPECT_EQ(pkt.seq, 99u);
        EXPECT_TRUE(pkt.counters.empty());
        return;
    }
    ++tally.decoded;
    EXPECT_EQ(tenant, pkt.tenant);
    Bytes again;
    serve::encodePacket(again, pkt.tenant, pkt.seq, pkt.counters.data(),
                        static_cast<std::uint32_t>(pkt.counters.size()),
                        pkt.total, pkt.cpi);
    EXPECT_EQ(again, m);
}

void
checkTrace(const Bytes &m, Tally &tally)
{
    trace::TraceData data;
    try {
        data = trace::parseTrace(m, "<mutant>");
    } catch (const Error &) {
        ++tally.rejected;
        return;
    }
    ++tally.decoded;
    EXPECT_EQ(trace::encodeTrace(data.profile, data.source), m);
}

void
checkEnvelope(const Bytes &m, const std::string &dir, Tally &tally)
{
    Bytes payload;
    try {
        payload = parseStateFile(m, kStateMagic, kStateVersion, "<m>");
    } catch (const Error &) {
        ++tally.rejected;
        return;
    }
    ++tally.decoded;
    StateWriter w;
    w.raw(payload.data(), payload.size());
    const std::string path = dir + "/again.state";
    ASSERT_TRUE(writeStateFile(path, kStateMagic, kStateVersion, w));
    EXPECT_EQ(readFile(path), m);
}

/** A manifest decodes with every checkpoint image equal to its
 * bundle file, or raises. */
void
checkManifest(const Bytes &m, const std::string &bundle, Tally &tally)
{
    ASSERT_TRUE(writeFileAtomic(
        bundle + "/" + serve::kMigrationManifest, m));
    std::vector<serve::MigratedTenant> tenants;
    try {
        tenants = serve::loadMigrationBundle(bundle);
    } catch (const Error &) {
        ++tally.rejected;
        return;
    }
    ++tally.decoded;
    for (const serve::MigratedTenant &t : tenants) {
        if (t.checkpoint.empty())
            continue;
        const std::string name = serve::tenantCheckpointFile(t.id);
        EXPECT_EQ(t.checkpoint, readFile(bundle + "/" + name));
    }
}

} // namespace

TEST(CodecMutation, MultiFaultMutantsDecodeExactlyOrRaiseCleanly)
{
    const std::string dir = tempDir("codec_mutation");
    const std::string bundle = dir + "/bundle";
    writeSampleBundle(bundle);
    const std::string manifestPath =
        bundle + "/" + serve::kMigrationManifest;

    StateWriter payload;
    payload.u64(3);
    payload.str("phase tracker");
    payload.f64(-2.5);
    const std::string envelopePath = dir + "/sample.state";
    ASSERT_TRUE(writeStateFile(envelopePath, kStateMagic,
                               kStateVersion, payload));

    struct Samples
    {
        Format format;
        const char *name;
        std::vector<Bytes> bases;
    };
    std::vector<Samples> formats = {
        {Format::Packet, "packet", {samplePacket(1), samplePacket(8)}},
        {Format::Trace,
         "trace",
         {corpusFile("corruption/seed.tpcptrace"),
          trace::encodeTrace(smallProfile(), "fresh")}},
        {Format::Envelope, "envelope", {readFile(envelopePath)}},
        {Format::Manifest, "manifest", {readFile(manifestPath)}},
    };
    std::vector<Bytes> donors = {
        corpusFile("corruption/forged-count.tpcptrace"),
        corpusFile("adversarial/phase-alias-s1.tpcptrace")};
    for (const Samples &s : formats)
        donors.insert(donors.end(), s.bases.begin(), s.bases.end());

    Mutator mutator(kSeed, donors);
    for (const Samples &s : formats) {
        Tally tally;
        for (unsigned i = 0; i < kMutantsPerFormat; ++i) {
            SCOPED_TRACE(std::string(s.name) + " mutant " +
                         std::to_string(i));
            const Bytes m = mutator.mutate(
                s.bases[i % s.bases.size()], s.format);
            switch (s.format) {
            case Format::Packet:
                checkPacket(m, tally);
                break;
            case Format::Trace:
                checkTrace(m, tally);
                break;
            case Format::Envelope:
                checkEnvelope(m, dir, tally);
                break;
            case Format::Manifest:
                checkManifest(m, bundle, tally);
                break;
            case Format::Checkpoint:
                // Resumed in ResilienceCheckpointMutantsResumeOrRaise.
                break;
            }
            if (HasFatalFailure())
                return;
        }
        // Both outcomes occur: the mutants reach past the header
        // checks, and the decoders do reject.
        EXPECT_GT(tally.decoded, 0u) << s.name;
        EXPECT_GT(tally.rejected, 0u) << s.name;
    }
    std::filesystem::remove_all(dir);
}

TEST(CodecMutation, ResilienceCheckpointMutantsResumeOrRaise)
{
    const std::string dir = tempDir("mutation_resilience");
    const std::string ckpt = dir + "/campaign.ckpt";
    const trace::IntervalProfile p = campaignProfile();
    // A mitigated campaign against every structure, scrubbed every 16
    // intervals: the checkpoint holds populated predictor tables,
    // corrected and quarantined rows, and possibly a pending flip.
    fault::ResilienceOptions opts = campaignOptions(ckpt);
    opts.injector.target = fault::Target::All;
    opts.injector.ratePerInterval = 0.3;
    opts.injector.mitigated = true;
    opts.scrubEvery = 16;
    ASSERT_TRUE(fault::runResilience(p, opts).checkpointed);

    const Bytes file = readFile(ckpt);
    std::uint32_t magic, version;
    std::memcpy(&magic, file.data(), 4);
    std::memcpy(&version, file.data() + 4, 4);
    const std::vector<Bytes> bases = {
        parseStateFile(file, magic, version, ckpt)};

    fault::ResilienceOptions resume = opts;
    resume.checkpointAt = 0;
    resume.resume = true;
    Mutator mutator(kSeed + 1, bases);
    Tally tally;
    for (unsigned i = 0; i < kMutantsPerFormat; ++i) {
        SCOPED_TRACE("checkpoint mutant " + std::to_string(i));
        const Bytes m = mutator.mutate(bases[0], Format::Checkpoint);
        StateWriter w;
        w.raw(m.data(), m.size());
        ASSERT_TRUE(writeStateFile(ckpt, magic, version, w));
        // Anything but tpcp::Error (std::bad_alloc above all) escapes
        // and fails the test.
        try {
            const fault::ResilienceReport r =
                fault::runResilience(p, resume);
            ++tally.decoded;
            EXPECT_FALSE(r.checkpointed);
            EXPECT_EQ(r.intervals, p.numIntervals());
        } catch (const Error &) {
            ++tally.rejected;
        }
    }
    EXPECT_GT(tally.decoded, 0u);
    EXPECT_GT(tally.rejected, 0u);
    std::filesystem::remove_all(dir);
}

TEST(CodecMutation, BadPacketMagicIsPrintedInHex)
{
    Bytes frame = samplePacket(4);
    frame[0] ^= 0x01; // 'TPKT' -> 0x544b5055
    serve::IntervalPacket pkt;
    try {
        serve::decodePacket(frame.data(), frame.size(), pkt);
        FAIL() << "bad magic accepted";
    } catch (const Error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "packet: bad magic 0x544b5055 (expected 0x544b5054)");
    }
}

// A manifest whose valid CRC covers a forged tenant count of 2^32
// used to reserve storage for 2^32 tenants and throw std::bad_alloc.
TEST(ForgedCount, MigrationManifestTenantCountRaisesAndInstallsNothing)
{
    const std::string dir = tempDir("forged_manifest");
    const std::string bundle = dir + "/bundle";
    std::filesystem::create_directories(bundle);
    for (std::uint64_t forged : {std::uint64_t{1} << 32,
                                 std::uint64_t{2}}) {
        // One complete entry follows the count, so 2 is one too many.
        StateWriter w;
        w.u64(forged);
        w.u64(5); // id
        w.u64(9); // nextSeq
        for (int c = 0; c < 14; ++c)
            w.u64(c);
        w.u64(0);      // quarantineRemaining
        w.b(false);    // no checkpoint
        ASSERT_TRUE(writeStateFile(
            bundle + "/" + serve::kMigrationManifest,
            serve::kMigrationMagic, serve::kMigrationVersion, w));
        EXPECT_THROW(serve::loadMigrationBundle(bundle), Error)
            << "count " << forged;
    }
    std::filesystem::remove_all(dir);
}

// The resilience checkpoint's phase-stream length sized a resize()
// after only a fixed 2^32 cap.
TEST(ForgedCount, ResilienceCheckpointPhaseStreamLengthRaises)
{
    const std::string dir = tempDir("forged_resilience");
    const std::string ckpt = dir + "/campaign.ckpt";
    const trace::IntervalProfile p = campaignProfile();
    const fault::ResilienceOptions opts = campaignOptions(ckpt);
    ASSERT_TRUE(fault::runResilience(p, opts).checkpointed);

    // The payload ends with the stream stats: u64 length, one u32
    // phase per interval, six u64 tallies, a flag and a u32.
    const Bytes file = readFile(ckpt);
    std::uint32_t magic, version;
    std::memcpy(&magic, file.data(), 4);
    std::memcpy(&version, file.data() + 4, 4);
    Bytes payload = parseStateFile(file, magic, version, ckpt);
    const std::size_t at = payload.size() - (8 + 4 * 50 + 6 * 8 + 1 + 4);
    std::uint64_t length;
    std::memcpy(&length, payload.data() + at, 8);
    ASSERT_EQ(length, 50u);

    const std::uint64_t forged = std::uint64_t{1} << 32;
    std::memcpy(payload.data() + at, &forged, 8);
    StateWriter w;
    w.raw(payload.data(), payload.size());
    ASSERT_TRUE(writeStateFile(ckpt, magic, version, w));

    fault::ResilienceOptions resume = opts;
    resume.checkpointAt = 0;
    resume.resume = true;
    EXPECT_THROW(fault::runResilience(p, resume), Error);
    std::filesystem::remove_all(dir);
}

// A checkpoint whose phase stream is longer than the profile used to
// be scored against the shorter fault-free stream, reading past its
// end.
TEST(ForgedCount, ResilienceCheckpointLongerThanProfileRaises)
{
    const std::string dir = tempDir("long_resilience");
    const std::string ckpt = dir + "/campaign.ckpt";
    const trace::IntervalProfile p = campaignProfile();
    const fault::ResilienceOptions opts = campaignOptions(ckpt);
    ASSERT_TRUE(fault::runResilience(p, opts).checkpointed);

    const Bytes file = readFile(ckpt);
    std::uint32_t magic, version;
    std::memcpy(&magic, file.data(), 4);
    std::memcpy(&version, file.data() + 4, 4);
    Bytes payload = parseStateFile(file, magic, version, ckpt);
    const std::size_t at = payload.size() - (8 + 4 * 50 + 6 * 8 + 1 + 4);
    // Append phases until the stream is one longer than the profile.
    const std::uint64_t length = p.numIntervals() + 1;
    std::memcpy(payload.data() + at, &length, 8);
    payload.insert(payload.begin() + at + 8 + 4 * 50, 4 * (length - 50),
                   0);
    StateWriter w;
    w.raw(payload.data(), payload.size());
    ASSERT_TRUE(writeStateFile(ckpt, magic, version, w));

    fault::ResilienceOptions resume = opts;
    resume.checkpointAt = 0;
    resume.resume = true;
    EXPECT_THROW(fault::runResilience(p, resume), Error);
    std::filesystem::remove_all(dir);
}
