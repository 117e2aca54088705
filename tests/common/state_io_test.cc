/**
 * @file
 * Unit tests for the checksummed state-file envelope: scalar
 * round-trips, reader bounds, and the corruption property the
 * checkpoint subsystem depends on — flipping any single byte of a
 * state file must make the load fail with a recoverable error.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "common/status.hh"

using namespace tpcp;

namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

StateWriter
samplePayload()
{
    StateWriter w;
    w.u8(0xab);
    w.b(true);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.f64(-2.5);
    w.str("phase tracker");
    const std::uint8_t block[4] = {1, 2, 3, 4};
    w.raw(block, sizeof(block));
    return w;
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<std::uint8_t> bytes;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        bytes.push_back(static_cast<std::uint8_t>(c));
    std::fclose(f);
    return bytes;
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // An empty vector's data() may be null, which fwrite must not
    // be given even for a zero-byte write.
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

constexpr std::uint32_t kMagic = 0x74736574; // "test"
constexpr std::uint32_t kVersion = 3;

} // namespace

TEST(StateIo, ScalarRoundTrip)
{
    StateWriter w = samplePayload();
    StateReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_DOUBLE_EQ(r.f64(), -2.5);
    EXPECT_EQ(r.str(), "phase tracker");
    std::uint8_t block[4] = {};
    r.raw(block, sizeof(block));
    EXPECT_EQ(block[3], 4);
    EXPECT_TRUE(r.atEnd());
}

TEST(StateIo, ReaderPastEndRaises)
{
    StateWriter w;
    w.u32(7);
    StateReader r(w.buffer());
    r.u32();
    EXPECT_THROW(r.u8(), Error);
}

TEST(StateIo, EnvelopeRoundTrip)
{
    const std::string path = tmpPath("envelope.state");
    StateWriter w = samplePayload();
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion, w));
    std::vector<std::uint8_t> payload =
        readStateFile(path, kMagic, kVersion);
    EXPECT_EQ(payload, w.buffer());
    std::remove(path.c_str());
}

TEST(StateIo, WrongMagicOrVersionRejected)
{
    const std::string path = tmpPath("magic.state");
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion,
                               samplePayload()));
    EXPECT_THROW(readStateFile(path, kMagic + 1, kVersion), Error);
    EXPECT_THROW(readStateFile(path, kMagic, kVersion + 1), Error);
    std::remove(path.c_str());
}

// The property the checkpoint subsystem relies on: every byte of the
// file — header and payload alike — is covered by a structural check
// or the CRC, so corrupting any single byte rejects the load.
TEST(StateIo, AnySingleCorruptByteRejected)
{
    const std::string path = tmpPath("corrupt.state");
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion,
                               samplePayload()));
    const std::vector<std::uint8_t> clean = readFileBytes(path);
    ASSERT_GT(clean.size(), 20u);
    for (std::size_t i = 0; i < clean.size(); ++i) {
        for (std::uint8_t mask : {0x01, 0x80}) {
            std::vector<std::uint8_t> bad = clean;
            bad[i] = static_cast<std::uint8_t>(bad[i] ^ mask);
            writeFileBytes(path, bad);
            EXPECT_THROW(readStateFile(path, kMagic, kVersion), Error)
                << "byte " << i << " mask " << unsigned(mask)
                << " not detected";
        }
    }
    std::remove(path.c_str());
}

TEST(StateIo, AnyTruncationRejected)
{
    const std::string path = tmpPath("trunc.state");
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion,
                               samplePayload()));
    const std::vector<std::uint8_t> clean = readFileBytes(path);
    for (std::size_t len = 0; len < clean.size(); ++len) {
        writeFileBytes(path, {clean.begin(), clean.begin() + len});
        EXPECT_THROW(readStateFile(path, kMagic, kVersion), Error)
            << "truncation to " << len << " bytes not detected";
    }
    std::remove(path.c_str());
}

TEST(StateIo, TrailingBytesRejected)
{
    const std::string path = tmpPath("trailing.state");
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion,
                               samplePayload()));
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    bytes.push_back(0);
    writeFileBytes(path, bytes);
    EXPECT_THROW(readStateFile(path, kMagic, kVersion), Error);
    std::remove(path.c_str());
}

TEST(StateIo, MissingFileRaises)
{
    EXPECT_THROW(
        readStateFile(tmpPath("no_such.state"), kMagic, kVersion),
        Error);
}

namespace
{

/** The message of the tpcp::Error @p fn raises ("" if none). */
template <typename Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const Error &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(StateIo, ReaderErrorsStartWithTheLabel)
{
    StateWriter w;
    w.u32(7);
    StateReader r(w.buffer(), "trace some/file.tpcptrace");
    const std::string msg = errorOf([&] { r.u64(); });
    EXPECT_EQ(msg.rfind("trace some/file.tpcptrace: truncated", 0), 0u)
        << msg;

    // A sub-reader reports under its parent's label.
    StateReader outer(w.buffer(), "packet");
    StateReader inner = outer.sub(4);
    EXPECT_TRUE(outer.atEnd());
    EXPECT_EQ(errorOf([&] { inner.u64(); }).rfind("packet: ", 0), 0u);
    EXPECT_EQ(errorOf([&] { outer.sub(1); }).rfind("packet: ", 0), 0u);
}

TEST(StateIo, CountIsBoundedByTheRemainingPayload)
{
    auto withCount = [](std::uint64_t n, std::size_t payload) {
        StateWriter w;
        w.u64(n);
        for (std::size_t i = 0; i < payload; ++i)
            w.u8(0);
        return w;
    };
    // Three 4-byte items fit exactly in 12 bytes; four do not.
    StateWriter fits = withCount(3, 12);
    StateReader r(fits.buffer());
    EXPECT_EQ(r.count(4), 3u);
    EXPECT_EQ(r.remaining(), 12u);

    for (std::uint64_t forged :
         {std::uint64_t{4}, std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
        StateWriter w = withCount(forged, 12);
        StateReader bad(w.buffer(), "manifest");
        const std::string msg = errorOf([&] { bad.count(4); });
        EXPECT_EQ(msg.rfind("manifest: count ", 0), 0u)
            << "count " << forged << ": " << msg;
    }
    // A count read elsewhere is checked against this reader's bytes.
    StateReader items(fits.buffer());
    EXPECT_EQ(items.checkCount(20, 1), 20u);
    EXPECT_THROW(items.checkCount(21, 1), Error);
}

TEST(StateIo, HeaderCheckPrintsMagicsInHex)
{
    // The four magics of the binary formats: TPKT frames, .tpcptrace,
    // .tpcpprof and the TMIG manifest envelope.
    for (std::uint32_t magic :
         {0x544B5054u, 0x52545054u, 0x54504350u, 0x47494D54u}) {
        StateWriter good;
        good.u32(magic);
        good.u32(1);
        StateReader ok(good.buffer());
        EXPECT_NO_THROW(ok.header(magic, 1));
        EXPECT_TRUE(ok.atEnd());

        StateWriter w;
        w.u32(0x0badf00du);
        w.u32(1);
        StateReader r(w.buffer(), "input");
        std::ostringstream want;
        want << "input: bad magic 0xbadf00d (expected 0x" << std::hex
             << magic << ")";
        EXPECT_EQ(errorOf([&] { r.header(magic, 1); }), want.str());

        StateReader v(good.buffer(), "input");
        EXPECT_EQ(errorOf([&] { v.header(magic, 2); }),
                  "input: version 1 unsupported (expected 2)");
    }
}

TEST(StateIo, Str32EnforcesItsLimit)
{
    StateWriter w;
    w.str32("phase");
    StateReader ok(w.buffer());
    EXPECT_EQ(ok.str32(5), "phase");
    StateReader over(w.buffer());
    EXPECT_THROW(over.str32(4), Error);
}

TEST(StateIo, AtomicFileRoundTripLeavesNoTempFile)
{
    const std::string dir = tmpPath("atomic_dir");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/file.bin";
    const std::vector<std::uint8_t> bytes = {0, 1, 2, 0xff};
    ASSERT_TRUE(writeFileAtomic(path, bytes));
    ASSERT_TRUE(writeFileAtomic(path, bytes)); // replaces in place
    EXPECT_EQ(readFile(path), bytes);
    std::size_t entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);

    EXPECT_FALSE(writeFileAtomic(dir + "/missing/file.bin", bytes));
    EXPECT_THROW(readFile(dir + "/absent.bin"), Error);
    EXPECT_THROW(readFile(dir), Error); // a directory is not a file
    std::filesystem::remove_all(dir);
}
