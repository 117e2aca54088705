/**
 * @file
 * Property-based sweeps over the microarchitecture models: cache
 * geometry invariants and monotonicity, exact LRU equivalence of the
 * cache and TLB against a per-line use-tick reference model, and
 * timing-core sanity across machine configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../test_helpers.hh"
#include "common/rng.hh"
#include "common/bitops.hh"
#include "uarch/cache.hh"
#include "uarch/exec_engine.hh"
#include "uarch/ooo_core.hh"
#include "uarch/simple_core.hh"
#include "uarch/tlb.hh"

using namespace tpcp;
using namespace tpcp::uarch;

// ---------------------------------------------------------------------
// Cache properties over geometry.
// ---------------------------------------------------------------------

namespace
{

/** (sizeKB, assoc, blockBytes). */
using CacheParams = std::tuple<unsigned, unsigned, unsigned>;

std::vector<Addr>
randomAddresses(std::uint64_t seed, std::size_t n,
                std::uint64_t footprint)
{
    Rng rng(seed);
    std::vector<Addr> out(n);
    for (auto &a : out)
        a = rng.next64() % footprint;
    return out;
}

class CacheProperties : public ::testing::TestWithParam<CacheParams>
{
  protected:
    CacheConfig
    config() const
    {
        auto [kb, assoc, block] = GetParam();
        CacheConfig c;
        c.sizeBytes = std::uint64_t(kb) * 1024;
        c.assoc = assoc;
        c.blockBytes = block;
        return c;
    }
};

} // namespace

TEST_P(CacheProperties, HitAfterAccess)
{
    Cache cache(config(), "p");
    auto addrs = randomAddresses(1, 500, 1 << 22);
    for (Addr a : addrs) {
        cache.access(a, false);
        EXPECT_TRUE(cache.probe(a))
            << "a just-accessed block must be resident";
    }
}

TEST_P(CacheProperties, MissesBoundedByAccesses)
{
    Cache cache(config(), "p");
    auto addrs = randomAddresses(2, 2000, 1 << 22);
    for (Addr a : addrs)
        cache.access(a, false);
    EXPECT_LE(cache.stats().misses, cache.stats().accesses);
    EXPECT_EQ(cache.stats().accesses, 2000u);
}

TEST_P(CacheProperties, SmallWorkingSetEventuallyAllHits)
{
    CacheConfig cfg = config();
    Cache cache(cfg, "p");
    // Touch half the cache's worth of distinct blocks, twice.
    std::uint64_t blocks = cfg.sizeBytes / cfg.blockBytes / 2;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t b = 0; b < blocks; ++b)
            cache.access(b * cfg.blockBytes, false);
    }
    EXPECT_EQ(cache.stats().misses, blocks)
        << "second pass over a fitting working set is all hits";
}

TEST_P(CacheProperties, DoubledSizeNeverMoreMisses)
{
    CacheConfig small = config();
    CacheConfig big = small;
    big.sizeBytes *= 2;
    Cache s(small, "s"), b(big, "b");
    // LRU with doubled sets: not a strict inclusion property in
    // general, but on random traces more capacity must not hurt
    // noticeably. Allow 2% slack.
    auto addrs = randomAddresses(3, 5000,
                                 small.sizeBytes * 4);
    for (Addr a : addrs) {
        s.access(a, false);
        b.access(a, false);
    }
    EXPECT_LE(b.stats().misses,
              s.stats().misses + s.stats().accesses / 50);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperties,
    ::testing::Combine(::testing::Values(4u, 16u, 128u), // size KB
                       ::testing::Values(1u, 4u, 8u),    // assoc
                       ::testing::Values(32u, 64u)),     // block
    [](const ::testing::TestParamInfo<CacheParams> &info) {
        return std::to_string(std::get<0>(info.param)) + "k_a" +
               std::to_string(std::get<1>(info.param)) + "_b" +
               std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Exact LRU: the recency-ordered cache and TLB sets choose the same
// victims as the textbook true-LRU model, which stamps every line
// with a global use tick and evicts the first invalid way, else the
// way with the oldest tick.
// ---------------------------------------------------------------------

namespace
{

/** One access of the tick-LRU reference: what the timed model must
 * report, plus the block the access evicted (if any). */
struct RefOutcome
{
    bool hit = false;
    bool writeback = false;
    bool evicted = false;
    std::uint64_t evictedBlock = 0;
};

/** Tick-LRU set-associative array: tags of @p blockShift-aligned
 * blocks, optionally with dirty bits (a TLB never writes). */
class TickLru
{
  public:
    TickLru(std::uint64_t sets, unsigned assoc, unsigned block_shift)
        : assoc(assoc), blockShift(block_shift), setMask(sets - 1),
          lines(sets * assoc)
    {
    }

    RefOutcome
    access(Addr addr, bool write)
    {
        std::uint64_t tag = addr >> blockShift;
        Line *base = &lines[(tag & setMask) * assoc];
        Line *victim = nullptr;
        for (unsigned w = 0; w < assoc; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.lastUse = ++tick;
                line.dirty = line.dirty || write;
                return {true, false, false, 0};
            }
            if (!line.valid) {
                if (!victim || victim->valid)
                    victim = &line;
            } else if (!victim || (victim->valid &&
                                   line.lastUse < victim->lastUse)) {
                victim = &line;
            }
        }
        RefOutcome out;
        out.evicted = victim->valid;
        out.evictedBlock = victim->tag;
        out.writeback = victim->valid && victim->dirty;
        *victim = Line{tag, true, write, ++tick};
        return out;
    }

    bool
    probe(Addr addr) const
    {
        std::uint64_t tag = addr >> blockShift;
        const Line *base = &lines[(tag & setMask) * assoc];
        for (unsigned w = 0; w < assoc; ++w)
            if (base[w].valid && base[w].tag == tag)
                return true;
        return false;
    }

    void
    reset()
    {
        std::fill(lines.begin(), lines.end(), Line{});
        tick = 0;
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    unsigned assoc;
    unsigned blockShift;
    std::uint64_t setMask;
    std::vector<Line> lines;
    std::uint64_t tick = 0;
};

/** Seeded access stream over a fixed pool of blocks: the pool size
 * (in blocks) is the stream's footprint, and low pool indices are
 * drawn more often so recently used ways keep getting hit. */
class PoolStream
{
  public:
    PoolStream(std::uint64_t seed, std::size_t pool_blocks,
               unsigned block_shift)
        : rng(seed), blockShift(block_shift)
    {
        // Block numbers mix the full 64-bit range (high tag bits)
        // with a dense low range (many blocks per set).
        const std::uint64_t dense = pool_blocks * 4;
        for (std::size_t i = 0; i < pool_blocks; ++i) {
            std::uint64_t block = (i % 4 == 0)
                                      ? rng.next64() >> block_shift
                                      : rng.next64() % dense;
            pool.push_back(block << block_shift);
        }
    }

    /** The next byte address and whether it is a write. */
    std::pair<Addr, bool>
    next()
    {
        const std::uint64_t n = pool.size();
        std::uint64_t a = rng.next64() % n, b = rng.next64() % n;
        Addr base = pool[std::min(a, b)];
        Addr offset = rng.next64() & ((Addr(1) << blockShift) - 1);
        return {base + offset, rng.nextBool(0.3)};
    }

    const std::vector<Addr> &blocks() const { return pool; }

  private:
    Rng rng;
    unsigned blockShift;
    std::vector<Addr> pool;
};

constexpr int kLruSteps = 120'000;

struct LruCacheCase
{
    const char *name;
    CacheConfig config;
};

void
PrintTo(const LruCacheCase &c, std::ostream *os)
{
    *os << c.name;
}

class ExactLruCache : public ::testing::TestWithParam<LruCacheCase>
{
};

struct LruTlbCase
{
    const char *name;
    TlbConfig config;
};

void
PrintTo(const LruTlbCase &c, std::ostream *os)
{
    *os << c.name;
}

class ExactLruTlb : public ::testing::TestWithParam<LruTlbCase>
{
};

} // namespace

TEST_P(ExactLruCache, MatchesTickLruEveryStep)
{
    const CacheConfig cfg = GetParam().config;
    const unsigned shift = floorLog2(cfg.blockBytes);
    const std::uint64_t capacity = cfg.sizeBytes / cfg.blockBytes;
    // Footprints below and above capacity: mostly hits, then
    // mostly misses with dirty victims.
    for (std::uint64_t pool : {capacity / 2, capacity * 4}) {
        SCOPED_TRACE("pool " + std::to_string(pool) + " blocks");
        Cache cache(cfg, "lru");
        TickLru ref(cfg.numSets(), cfg.assoc, shift);
        CacheStats expect;
        PoolStream stream(capacity * 31 + pool, pool, shift);
        for (int step = 0; step < kLruSteps; ++step) {
            if (step == kLruSteps / 3) {
                cache.reset();
                ref.reset();
                expect = CacheStats{};
            }
            auto [addr, write] = stream.next();
            const CacheAccessResult got = cache.access(addr, write);
            const RefOutcome want = ref.access(addr, write);
            ++expect.accesses;
            expect.misses += !want.hit;
            expect.writebacks += want.writeback;
            ASSERT_EQ(got.hit, want.hit) << "step " << step;
            ASSERT_EQ(got.writeback, want.writeback) << "step " << step;
            ASSERT_TRUE(cache.probe(addr)) << "step " << step;
            if (want.evicted) {
                ASSERT_FALSE(cache.probe(want.evictedBlock << shift))
                    << "step " << step << ": victim still resident";
            }
            ASSERT_EQ(cache.stats().accesses, expect.accesses);
            ASSERT_EQ(cache.stats().misses, expect.misses);
            ASSERT_EQ(cache.stats().writebacks, expect.writebacks);
            if (step % 4099 == 0) {
                for (Addr block : stream.blocks())
                    ASSERT_EQ(cache.probe(block), ref.probe(block))
                        << "step " << step;
            }
        }
    }
}

TEST_P(ExactLruTlb, MatchesTickLruEveryStep)
{
    const TlbConfig cfg = GetParam().config;
    const unsigned shift = floorLog2(cfg.pageBytes);
    for (std::uint64_t pool : {std::uint64_t(cfg.entries / 2),
                               std::uint64_t(cfg.entries) * 4}) {
        SCOPED_TRACE("pool " + std::to_string(pool) + " pages");
        Tlb tlb(cfg);
        TickLru ref(cfg.entries / cfg.assoc, cfg.assoc, shift);
        TlbStats expect;
        PoolStream stream(cfg.entries * 17 + pool, pool, shift);
        for (int step = 0; step < kLruSteps; ++step) {
            if (step == kLruSteps / 3) {
                tlb.reset();
                ref.reset();
                expect = TlbStats{};
            }
            const Addr addr = stream.next().first;
            const bool hit = tlb.access(addr);
            const RefOutcome want = ref.access(addr, false);
            ++expect.accesses;
            expect.misses += !want.hit;
            ASSERT_EQ(hit, want.hit) << "step " << step;
            ASSERT_EQ(tlb.stats().accesses, expect.accesses);
            ASSERT_EQ(tlb.stats().misses, expect.misses);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ExactLruCache,
    ::testing::Values(
        LruCacheCase{"direct_mapped", {4 * 1024, 1, 32, 1}},
        LruCacheCase{"two_way", {4 * 1024, 2, 32, 1}},
        LruCacheCase{"four_way", {8 * 1024, 4, 64, 1}},
        LruCacheCase{"eight_way", {8 * 1024, 8, 32, 1}},
        LruCacheCase{"sixteen_way", {32 * 1024, 16, 64, 1}},
        LruCacheCase{"fully_associative", {2 * 1024, 64, 32, 1}},
        LruCacheCase{"table1_l1", MachineConfig::table1().dcache},
        LruCacheCase{"table1_l2", MachineConfig::table1().l2}),
    [](const ::testing::TestParamInfo<LruCacheCase> &info) {
        return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    Geometries, ExactLruTlb,
    ::testing::Values(LruTlbCase{"direct_mapped", {8 * 1024, 64, 1, 30}},
                      LruTlbCase{"two_way", {4 * 1024, 64, 2, 30}},
                      LruTlbCase{"eight_way", {8 * 1024, 64, 8, 30}},
                      LruTlbCase{"sixteen_way", {8 * 1024, 64, 16, 30}},
                      LruTlbCase{"fully_associative",
                                 {8 * 1024, 32, 32, 30}},
                      LruTlbCase{"table1", MachineConfig::table1().dtlb}),
    [](const ::testing::TestParamInfo<LruTlbCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------------
// Timing-core properties over machine configurations.
// ---------------------------------------------------------------------

namespace
{

/** (issueWidth, robEntries, useOoo). */
using CoreParams = std::tuple<unsigned, unsigned, bool>;

class CoreProperties : public ::testing::TestWithParam<CoreParams>
{
  protected:
    MachineConfig
    machine() const
    {
        auto [width, rob, ooo] = GetParam();
        MachineConfig m = MachineConfig::table1();
        m.core.issueWidth = width;
        m.core.fetchWidth = width;
        m.core.commitWidth = width;
        m.core.robEntries = rob;
        return m;
    }

    std::unique_ptr<TimingCore>
    core() const
    {
        auto [width, rob, ooo] = GetParam();
        if (ooo)
            return std::make_unique<OooCore>(machine());
        return std::make_unique<SimpleCore>(machine());
    }
};

} // namespace

TEST_P(CoreProperties, CpiBoundedBelowByIssueWidth)
{
    auto [width, rob, ooo] = GetParam();
    isa::Program p = test::loopProgram(15, 64);
    ExecEngine eng(p, 1);
    auto c = core();
    const InstCount n = 20'000;
    for (InstCount i = 0; i < n; ++i)
        c->consume(eng.next());
    double cpi = static_cast<double>(c->cycles()) /
                 static_cast<double>(n);
    EXPECT_GE(cpi, 1.0 / width - 1e-9)
        << "cannot beat the issue width";
    EXPECT_GT(c->cycles(), 0u);
}

TEST_P(CoreProperties, CyclesMonotoneNondecreasing)
{
    isa::Program p = test::loopProgram();
    ExecEngine eng(p, 2);
    auto c = core();
    Cycles prev = 0;
    for (int i = 0; i < 5000; ++i) {
        c->consume(eng.next());
        ASSERT_GE(c->cycles(), prev);
        prev = c->cycles();
    }
}

TEST_P(CoreProperties, ResetIsComplete)
{
    isa::Program p = test::loopProgram();
    auto c = core();
    {
        ExecEngine eng(p, 3);
        for (int i = 0; i < 5000; ++i)
            c->consume(eng.next());
    }
    Cycles first = c->cycles();
    c->reset();
    {
        ExecEngine eng(p, 3);
        for (int i = 0; i < 5000; ++i)
            c->consume(eng.next());
    }
    EXPECT_EQ(c->cycles(), first)
        << "identical stream after reset gives identical timing";
}

INSTANTIATE_TEST_SUITE_P(
    Machines, CoreProperties,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u), // width
                       ::testing::Values(16u, 64u, 256u), // rob
                       ::testing::Bool()),                // ooo
    [](const ::testing::TestParamInfo<CoreParams> &info) {
        return std::string(std::get<2>(info.param) ? "ooo"
                                                   : "simple") +
               "_w" + std::to_string(std::get<0>(info.param)) +
               "_rob" + std::to_string(std::get<1>(info.param));
    });
