/**
 * @file
 * Deterministic corruption corpus for the .tpcpprof loader: every
 * single-bit flip, every truncation, and a forged record count must
 * either fail the load cleanly or yield a structurally consistent
 * profile — never crash, over-allocate, or return torn data. Runs
 * under the ASan CI job like every other test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "trace/interval_profile.hh"

using namespace tpcp;
using namespace tpcp::trace;

namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** A small but fully populated profile: two dimension configs and a
 * handful of records keep the corpus loop fast (~2 x file size loads)
 * while covering every field of the format. */
IntervalProfile
sampleProfile()
{
    IntervalProfile p("w", "ooo", 1000, {4, 8});
    p.setMachineHash(0x1234abcd5678ef00ull);
    for (int i = 0; i < 3; ++i) {
        IntervalRecord rec;
        rec.cpi = 1.0 + 0.25 * i;
        rec.insts = 1000;
        rec.accumTotal = 500 + i;
        rec.accums = {std::vector<std::uint32_t>(4, 100u + i),
                      std::vector<std::uint32_t>(8, 50u + i)};
        p.push(std::move(rec));
    }
    return p;
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

/** Whatever the loader accepted must at least be self-consistent:
 * record shapes match the declared dimension configs. The format has
 * no checksum (flips inside CPI payloads are legitimately invisible),
 * so structural consistency is the contract. */
void
expectConsistent(const IntervalProfile &p)
{
    for (std::size_t i = 0; i < p.numIntervals(); ++i) {
        const IntervalRecord &rec = p.interval(i);
        ASSERT_EQ(rec.accums.size(), p.dims().size());
        for (std::size_t d = 0; d < p.dims().size(); ++d)
            ASSERT_EQ(rec.accums[d].size(), p.dims()[d]);
    }
}

} // namespace

TEST(ProfileCorruption, EverySingleBitFlipLoadsCleanlyOrFails)
{
    const std::string path = tmpPath("corpus_flip.tpcpprof");
    ASSERT_TRUE(sampleProfile().save(path));
    const std::vector<std::uint8_t> clean = readFileBytes(path);
    ASSERT_GT(clean.size(), 50u);

    for (std::size_t i = 0; i < clean.size(); ++i) {
        for (std::uint8_t mask : {0x01, 0x80}) {
            std::vector<std::uint8_t> bad = clean;
            bad[i] = static_cast<std::uint8_t>(bad[i] ^ mask);
            writeFileBytes(path, bad);
            IntervalProfile q;
            if (q.load(path)) {
                expectConsistent(q);
            } else {
                EXPECT_EQ(q.numIntervals(), 0u)
                    << "failed load left partial data (byte " << i
                    << ")";
            }
        }
    }
    std::remove(path.c_str());
}

TEST(ProfileCorruption, EveryTruncationFailsCleanly)
{
    const std::string path = tmpPath("corpus_trunc.tpcpprof");
    ASSERT_TRUE(sampleProfile().save(path));
    const std::vector<std::uint8_t> clean = readFileBytes(path);

    for (std::size_t len = 0; len < clean.size(); ++len) {
        writeFileBytes(path, {clean.begin(), clean.begin() + len});
        IntervalProfile q;
        EXPECT_FALSE(q.load(path))
            << "truncation to " << len << " bytes accepted";
        EXPECT_EQ(q.numIntervals(), 0u);
    }
    std::remove(path.c_str());
}

TEST(ProfileCorruption, TrailingGarbageRejected)
{
    const std::string path = tmpPath("corpus_trailing.tpcpprof");
    ASSERT_TRUE(sampleProfile().save(path));
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    bytes.push_back(0);
    writeFileBytes(path, bytes);
    IntervalProfile q;
    EXPECT_FALSE(q.load(path));
    EXPECT_EQ(q.numIntervals(), 0u);
}

TEST(ProfileCorruption, ForgedRecordCountDoesNotAllocate)
{
    // Regression: a corrupted record count used to drive
    // records.resize() straight into a multi-gigabyte allocation. The
    // loader now bounds the count by the remaining file length before
    // allocating anything.
    const std::string path = tmpPath("corpus_count.tpcpprof");
    IntervalProfile p = sampleProfile();
    ASSERT_TRUE(p.save(path));
    std::vector<std::uint8_t> bytes = readFileBytes(path);

    // Offset of the u64 record count, mirroring the writer: magic,
    // version, two length-prefixed strings, interval, machine hash,
    // dimension count, one u32 per dimension config.
    std::size_t off = 4 + 4 + (4 + p.workload().size()) +
                      (4 + p.coreName().size()) + 8 + 8 + 4 +
                      4 * p.dims().size();
    ASSERT_LE(off + 8, bytes.size());
    const std::uint64_t forged = (1ull << 32); // passes the old cap
    std::memcpy(&bytes[off], &forged, sizeof(forged));
    writeFileBytes(path, bytes);

    IntervalProfile q;
    EXPECT_FALSE(q.load(path));
    EXPECT_EQ(q.numIntervals(), 0u);
    std::remove(path.c_str());
}
