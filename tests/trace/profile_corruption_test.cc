/**
 * @file
 * Deterministic corruption corpus for the profile cache's files:
 * every single-bit flip, every truncation, trailing bytes and a
 * forged record count in a cached `.tpcptrace` profile must be
 * rejected — getProfile() counts a reject and serves the rebuilt,
 * clean profile, and a --require-cache lookup raises — never crash,
 * over-allocate, or serve damaged data. Runs under the ASan CI job
 * like every other test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "../test_helpers.hh"
#include "common/state_io.hh"
#include "common/status.hh"
#include "trace/profile_cache.hh"
#include "trace/trace_file.hh"

using namespace tpcp;
using namespace tpcp::trace;

namespace
{

using Bytes = std::vector<std::uint8_t>;

/** A workload small enough to re-simulate once per corrupted file:
 * two code regions, four 1000-instruction intervals. */
workload::Workload
tinyWorkload()
{
    workload::Workload w;
    w.name = "tiny";
    w.program = test::twoRegionProgram();
    w.script = workload::scriptSeq({workload::scriptRun(0, 2000, 0.0),
                                    workload::scriptRun(1, 2000, 0.0)});
    w.seed = 3;
    return w;
}

/** Options that cache tinyWorkload() in @p dir at two dimension
 * configs, so the file covers every field of the format. */
ProfileOptions
cacheOptions(const std::string &dir)
{
    ProfileOptions opts;
    opts.intervalLen = 1000;
    opts.dims = {4, 8};
    opts.coreName = "simple";
    opts.cacheDir = dir;
    return opts;
}

/** A fresh cache directory holding tinyWorkload()'s profile. */
class ProfileCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::string(::testing::TempDir()) + "tpcp_corruption_" +
              ::testing::UnitTest::GetInstance()->current_test_info()
                  ->name();
        std::filesystem::remove_all(dir);
        opts = cacheOptions(dir);
        strict = opts;
        strict.requireCache = true;
        getProfile(w, opts);
        path = profileCachePath(w.name, opts);
        clean = readFile(path);
        ASSERT_GT(clean.size(), 100u);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    /** Writes @p bytes over the cache file, then checks that a strict
     * lookup raises and a normal one rejects the file, rebuilds the
     * clean profile and rewrites the clean file. */
    void
    expectRejected(const Bytes &bytes)
    {
        ASSERT_TRUE(writeFileAtomic(path, bytes));
        EXPECT_THROW(getProfile(w, strict), Error);
        resetProfileCacheStats();
        const IntervalProfile served = getProfile(w, opts);
        const ProfileCacheStats stats = profileCacheStats();
        EXPECT_EQ(stats.rejects, 1u);
        EXPECT_EQ(stats.builds, 1u);
        EXPECT_EQ(stats.hits, 0u);
        EXPECT_EQ(encodeTrace(served, ""), clean);
        EXPECT_EQ(readFile(path), clean);
    }

    workload::Workload w = tinyWorkload();
    ProfileOptions opts;
    ProfileOptions strict;
    std::string dir;
    std::string path;
    Bytes clean;
};

} // namespace

TEST_F(ProfileCorruption, EverySingleBitFlipLoadsCleanlyOrFails)
{
    for (std::size_t i = 0; i < clean.size(); ++i) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            SCOPED_TRACE("byte " + std::to_string(i) + " bit " +
                         std::to_string(bit));
            Bytes bad = clean;
            bad[i] = static_cast<std::uint8_t>(bad[i] ^ (1u << bit));
            expectRejected(bad);
            if (HasFailure())
                return;
        }
    }
}

TEST_F(ProfileCorruption, EveryTruncationFailsCleanly)
{
    for (std::size_t len = 0; len < clean.size(); ++len) {
        SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
        ASSERT_TRUE(writeFileAtomic(path, {clean.begin(),
                                           clean.begin() + len}));
        EXPECT_THROW(getProfile(w, strict), Error);
    }
    expectRejected({clean.begin(), clean.end() - 1});
}

TEST_F(ProfileCorruption, TrailingGarbageRejected)
{
    Bytes bytes = clean;
    bytes.push_back(0);
    expectRejected(bytes);
}

TEST_F(ProfileCorruption, ForgedRecordCountDoesNotAllocate)
{
    // A record count whose header CRC is valid must still be bounded
    // by the bytes that follow before it sizes any allocation. The
    // u64 count ends the header payload, which starts after magic,
    // version and length; the header CRC follows it.
    Bytes bytes = clean;
    std::uint32_t header_len;
    std::memcpy(&header_len, &bytes[8], 4);
    const std::size_t off = 12 + header_len - 8;
    const std::uint64_t forged = 1ull << 40;
    std::memcpy(&bytes[off], &forged, sizeof(forged));
    const std::uint32_t crc = crc32(&bytes[12], header_len);
    std::memcpy(&bytes[12 + header_len], &crc, 4);
    expectRejected(bytes);
}
