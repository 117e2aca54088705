/**
 * @file
 * The .tpcptrace format under test: write -> read byte identity,
 * idempotent re-export, content-hash stability, exhaustive
 * single-bit-flip and truncation rejection (every byte of the format
 * is covered by a structural check or a CRC), and replay of the
 * checked-in corruption corpus against its MANIFEST. (Corpus drift —
 * regeneration must reproduce the checked-in bytes — is checked by
 * the corpus_corruption_drift ctest.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.hh"
#include "trace/trace_file.hh"

using namespace tpcp;
using namespace tpcp::trace;

namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Small but complete: two dim configs, varied records. */
IntervalProfile
sampleProfile()
{
    IntervalProfile p("alias/x", "ooo", 1000, {4, 8});
    p.setMachineHash(0x1234abcd5678ef00ull);
    for (int i = 0; i < 5; ++i) {
        IntervalRecord rec;
        rec.cpi = 0.75 + 0.25 * i;
        rec.insts = 1000;
        rec.accumTotal = 500 + i;
        std::vector<std::uint32_t> counters(4, 100u + i);
        counters.resize(4 + 8, 50u + i);
        p.push(rec, counters);
    }
    return p;
}

void
expectProfilesEqual(const IntervalProfile &a,
                    const IntervalProfile &b)
{
    EXPECT_EQ(a.workload(), b.workload());
    EXPECT_EQ(a.coreName(), b.coreName());
    EXPECT_EQ(a.intervalLength(), b.intervalLength());
    EXPECT_EQ(a.machineHash(), b.machineHash());
    EXPECT_EQ(a.dims(), b.dims());
    ASSERT_EQ(a.numIntervals(), b.numIntervals());
    for (std::size_t i = 0; i < a.numIntervals(); ++i) {
        EXPECT_EQ(a.interval(i).cpi, b.interval(i).cpi);
        EXPECT_EQ(a.interval(i).insts, b.interval(i).insts);
        EXPECT_EQ(a.interval(i).accumTotal,
                  b.interval(i).accumTotal);
        EXPECT_TRUE(std::equal(a.counters(i, 0),
                               a.counters(i, 0) + a.countersPerInterval(),
                               b.counters(i, 0)));
    }
}

TEST(TraceFile, RoundTripPreservesEverything)
{
    IntervalProfile p = sampleProfile();
    std::vector<std::uint8_t> bytes = encodeTrace(p, "unit test");
    TraceData data = parseTrace(bytes, "<memory>");
    expectProfilesEqual(p, data.profile);
    EXPECT_EQ(data.source, "unit test");
}

TEST(TraceFile, ReExportIsByteIdentical)
{
    IntervalProfile p = sampleProfile();
    std::vector<std::uint8_t> first = encodeTrace(p, "src");
    TraceData data = parseTrace(first, "<memory>");
    std::vector<std::uint8_t> second =
        encodeTrace(data.profile, data.source);
    EXPECT_EQ(first, second);
}

TEST(TraceFile, WriteReadFileRoundTrip)
{
    const std::string path = tmpPath("roundtrip.tpcptrace");
    IntervalProfile p = sampleProfile();
    writeTrace(path, p, "file test");
    TraceData data = readTrace(path);
    expectProfilesEqual(p, data.profile);
    EXPECT_EQ(data.source, "file test");
    std::remove(path.c_str());
}

TEST(TraceFile, ContentHashIsFnv1a64)
{
    // Pinned: FNV-1a 64 of "tpcp". `tpcp trace info` prints this
    // hash of the file bytes, so an accidental algorithm change must
    // fail loudly.
    EXPECT_EQ(tpcp::fnv1a64("tpcp", 4), 0x6d4c0def5ba2d76aull);
    EXPECT_EQ(tpcp::fnv1a64("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(tpcp::fnv1a64(std::string_view("tpcp")),
              0x6d4c0def5ba2d76aull);
}

TEST(TraceFile, ContentHashTracksEveryByte)
{
    std::vector<std::uint8_t> bytes =
        encodeTrace(sampleProfile(), "h");
    const std::uint64_t base = fnv1a64(bytes.data(), bytes.size());
    for (std::size_t i = 0; i < bytes.size(); i += 7) {
        bytes[i] ^= 0x01;
        EXPECT_NE(fnv1a64(bytes.data(), bytes.size()), base)
            << "flip at byte " << i;
        bytes[i] ^= 0x01;
    }
}

TEST(TraceFile, EverySingleBitFlipIsRejected)
{
    std::vector<std::uint8_t> bytes =
        encodeTrace(sampleProfile(), "flip");
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_THROW(parseTrace(bytes, "<memory>"), Error)
                << "byte " << i << " bit " << bit;
            bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
        }
    }
    // The pristine image still parses (the loop restored it).
    EXPECT_NO_THROW(parseTrace(bytes, "<memory>"));
}

TEST(TraceFile, EveryTruncationIsRejected)
{
    const std::vector<std::uint8_t> full =
        encodeTrace(sampleProfile(), "trunc");
    for (std::size_t n = 0; n < full.size(); ++n) {
        std::vector<std::uint8_t> cut(full.begin(),
                                      full.begin() + n);
        EXPECT_THROW(parseTrace(cut, "<memory>"), Error)
            << "truncated to " << n << " bytes";
    }
}

TEST(TraceFile, TrailingGarbageIsRejected)
{
    std::vector<std::uint8_t> bytes =
        encodeTrace(sampleProfile(), "tail");
    bytes.push_back(0x00);
    EXPECT_THROW(parseTrace(bytes, "<memory>"), Error);
}

TEST(TraceFile, EncodeRejectsOversizedFields)
{
    IntervalProfile p = sampleProfile();
    EXPECT_THROW(
        encodeTrace(p, std::string(kTraceMaxSource + 1, 's')),
        Error);
    IntervalProfile longname(std::string(kTraceMaxName + 1, 'n'),
                             "ooo", 1000, {4});
    EXPECT_THROW(encodeTrace(longname, ""), Error);
}

TEST(TraceFile, MissingFileRaises)
{
    EXPECT_THROW(readTrace(tmpPath("no-such-trace.tpcptrace")),
                 Error);
}

// --- checked-in corruption corpus ------------------------------

std::string
corpusDir()
{
    return std::string(TPCP_SOURCE_DIR) +
           "/tests/corpus/corruption";
}

TEST(TraceCorpus, ManifestReplay)
{
    std::ifstream mf(corpusDir() + "/MANIFEST");
    ASSERT_TRUE(mf) << "missing " << corpusDir() << "/MANIFEST";
    std::string line;
    std::size_t entries = 0, expect_ok = 0;
    while (std::getline(mf, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string file, expect;
        ASSERT_TRUE(ls >> file >> expect) << line;
        ++entries;
        const std::string path = corpusDir() + "/" + file;
        if (expect == "ok") {
            ++expect_ok;
            TraceData data;
            EXPECT_NO_THROW(data = readTrace(path)) << file;
            EXPECT_GT(data.profile.numIntervals(), 0u) << file;
        } else {
            ASSERT_EQ(expect, "fail") << line;
            EXPECT_THROW(readTrace(path), Error) << file;
        }
    }
    // The corpus covers the corruption classes the format must
    // reject; a shrunken manifest means lost coverage.
    EXPECT_GE(entries, 12u);
    EXPECT_GE(expect_ok, 1u);
}

TEST(TraceCorpus, SeedFileParsesToExpectedShape)
{
    TraceData data =
        readTrace(corpusDir() + "/seed.tpcptrace");
    EXPECT_EQ(data.profile.workload(), "adv:phase-alias/s7");
    EXPECT_EQ(data.profile.numIntervals(), 40u);
    EXPECT_EQ(data.source, "corruption-corpus seed");
}

} // namespace
