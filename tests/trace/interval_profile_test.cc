/**
 * @file
 * Unit tests for interval-profile storage: construction constraints,
 * the flat counter layout, and save() round trips through the trace
 * reader (the profile cache's load path).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/state_io.hh"
#include "common/status.hh"
#include "trace/trace_file.hh"

using namespace tpcp;
using namespace tpcp::trace;

namespace
{

IntervalProfile
sampleProfile()
{
    IntervalProfile p("test/wl", "ooo", 1000, {4, 8});
    for (int i = 0; i < 5; ++i) {
        IntervalRecord rec;
        rec.cpi = 1.0 + 0.1 * i;
        rec.insts = 1000;
        rec.accumTotal = 900 + i;
        std::vector<std::uint32_t> counters(4, 10u + i);
        counters.resize(4 + 8, 20u + i);
        p.push(rec, counters);
    }
    return p;
}

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

} // namespace

TEST(IntervalProfile, Metadata)
{
    IntervalProfile p = sampleProfile();
    EXPECT_EQ(p.workload(), "test/wl");
    EXPECT_EQ(p.coreName(), "ooo");
    EXPECT_EQ(p.intervalLength(), 1000u);
    EXPECT_EQ(p.numIntervals(), 5u);
}

TEST(IntervalProfile, DimIndexLookup)
{
    IntervalProfile p = sampleProfile();
    EXPECT_EQ(p.dimIndex(4), 0u);
    EXPECT_EQ(p.dimIndex(8), 1u);
}

TEST(IntervalProfile, CountersAreFlatInDimsOrder)
{
    IntervalProfile p = sampleProfile();
    EXPECT_EQ(p.countersPerInterval(), 12u);
    for (std::size_t i = 0; i < p.numIntervals(); ++i) {
        // The 8-counter block follows the 4-counter block directly.
        EXPECT_EQ(p.counters(i, 1), p.counters(i, 0) + 4);
        EXPECT_EQ(p.counters(i, 0)[3], 10u + i);
        EXPECT_EQ(p.counters(i, 1)[0], 20u + i);
        EXPECT_EQ(p.counters(i, 1)[7], 20u + i);
    }
}

TEST(IntervalProfile, CpisInOrder)
{
    IntervalProfile p = sampleProfile();
    auto cpis = p.cpis();
    ASSERT_EQ(cpis.size(), 5u);
    EXPECT_DOUBLE_EQ(cpis[0], 1.0);
    EXPECT_DOUBLE_EQ(cpis[4], 1.4);
}

TEST(IntervalProfile, SaveLoadRoundTrip)
{
    IntervalProfile p = sampleProfile();
    std::string path = tmpPath("roundtrip.tpcptrace");
    ASSERT_TRUE(p.save(path));

    TraceData t = readTrace(path);
    const IntervalProfile &q = t.profile;
    EXPECT_TRUE(t.source.empty());
    EXPECT_EQ(q.workload(), p.workload());
    EXPECT_EQ(q.coreName(), p.coreName());
    EXPECT_EQ(q.intervalLength(), p.intervalLength());
    EXPECT_EQ(q.dims(), p.dims());
    ASSERT_EQ(q.numIntervals(), p.numIntervals());
    for (std::size_t i = 0; i < p.numIntervals(); ++i) {
        EXPECT_DOUBLE_EQ(q.interval(i).cpi, p.interval(i).cpi);
        EXPECT_EQ(q.interval(i).insts, p.interval(i).insts);
        EXPECT_EQ(q.interval(i).accumTotal,
                  p.interval(i).accumTotal);
        EXPECT_TRUE(std::equal(p.counters(i, 0),
                               p.counters(i, 0) + 12,
                               q.counters(i, 0)));
    }
    EXPECT_EQ(readFile(path), encodeTrace(p, ""));
    std::remove(path.c_str());
}

TEST(IntervalProfile, LoadGarbageFails)
{
    std::string path = tmpPath("garbage.tpcptrace");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a profile", f);
    std::fclose(f);
    EXPECT_THROW(readTrace(path), Error);
    std::remove(path.c_str());
}

TEST(IntervalProfile, LoadTruncatedFails)
{
    IntervalProfile p = sampleProfile();
    std::string path = tmpPath("trunc.tpcptrace");
    ASSERT_TRUE(p.save(path));
    // Truncate the file to half size.
    const auto size = std::filesystem::file_size(path);
    ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(size / 2)), 0);
    EXPECT_THROW(readTrace(path), Error);
    std::remove(path.c_str());
}

TEST(IntervalProfile, PushRejectsWrongShape)
{
    IntervalProfile p("w", "ooo", 100, {4});
    EXPECT_DEATH(p.push(IntervalRecord{},
                        std::vector<std::uint32_t>(8, 1)),
                 "mismatch");
}

TEST(IntervalProfile, MachineHashRoundTrip)
{
    IntervalProfile p = sampleProfile();
    p.setMachineHash(0xdeadbeefcafef00dull);
    std::string path = tmpPath("mhash.tpcptrace");
    ASSERT_TRUE(p.save(path));
    EXPECT_EQ(readTrace(path).profile.machineHash(),
              0xdeadbeefcafef00dull);
    std::remove(path.c_str());
}

TEST(IntervalProfile, LoadRejectsTrailingGarbage)
{
    IntervalProfile p = sampleProfile();
    std::string path = tmpPath("trailing.tpcptrace");
    ASSERT_TRUE(p.save(path));
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("extra", f);
    std::fclose(f);
    EXPECT_THROW(readTrace(path), Error);
    std::remove(path.c_str());
}

TEST(IntervalProfile, LoadRejectsOldVersion)
{
    IntervalProfile p = sampleProfile();
    std::string path = tmpPath("oldver.tpcptrace");
    ASSERT_TRUE(p.save(path));
    // Patch the version field (second uint32 in the header) back to
    // one before the current format version.
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 4, SEEK_SET);
    std::uint32_t old_version = kTraceVersion - 1;
    ASSERT_EQ(std::fwrite(&old_version, 4, 1, f), 1u);
    std::fclose(f);
    EXPECT_THROW(readTrace(path), Error);
    std::remove(path.c_str());
}

TEST(IntervalProfile, SaveLeavesNoTempFiles)
{
    namespace fs = std::filesystem;
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_prof_atomic";
    fs::remove_all(dir);
    fs::create_directories(dir);
    IntervalProfile p = sampleProfile();
    ASSERT_TRUE(p.save(dir + "/x.tpcptrace"));
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        ++entries;
        EXPECT_EQ(e.path().extension(), ".tpcptrace")
            << "unexpected leftover: " << e.path();
    }
    EXPECT_EQ(entries, 1u);
    fs::remove_all(dir);
}
