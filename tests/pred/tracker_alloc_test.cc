/**
 * @file
 * The tracker's interval path allocates nothing once warm. This
 * executable replaces the global operator new/delete with counting
 * versions that forward to malloc/free (so no other test binary is
 * affected), warms a PhaseTracker on a seeded stream whose phases all
 * recur, and asserts that the next 10k onIntervalRaw() calls make no
 * heap allocation, for the paper's tables and for TAGE. A std::vector
 * or std::deque back on the hot path fails here.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "pred/phase_tracker.hh"

namespace
{

std::atomic<std::uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    if (align <= alignof(std::max_align_t))
        return std::malloc(n);
    return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void *
countedAllocOrThrow(std::size_t n, std::size_t align = 0)
{
    void *p = countedAlloc(n, align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace tpcp;
using namespace tpcp::pred;

namespace
{

constexpr unsigned kShapes = 5;
constexpr int kWarmIntervals = 5000;
constexpr int kCountedIntervals = 10000;

/** One fixed accumulator snapshot per phase shape, so every phase
 * the classifier assigns recurs. */
std::vector<std::vector<std::uint32_t>>
snapshots(unsigned counters)
{
    std::vector<std::vector<std::uint32_t>> out(kShapes);
    for (unsigned s = 0; s < kShapes; ++s) {
        out[s].assign(counters, 0);
        for (unsigned i = 0; i < 4; ++i)
            out[s][(s * 3 + i) % counters] = 2500;
    }
    return out;
}

/** A seeded phase stream: a six-run cycle whose run lengths and
 * phases are perturbed one run in four, so the change tables both
 * hit and miss. */
std::vector<unsigned>
shapeStream(std::size_t n)
{
    static constexpr unsigned kCycle[][2] = {
        {0, 3}, {1, 5}, {2, 1}, {0, 7}, {3, 2}, {4, 4}};
    Rng rng(std::uint64_t{2705});
    std::vector<unsigned> out;
    out.reserve(n);
    for (std::size_t run = 0; out.size() < n; ++run) {
        unsigned shape = kCycle[run % 6][0];
        unsigned len = kCycle[run % 6][1];
        if (rng.nextBounded(4) == 0) {
            shape = rng.nextBounded(kShapes);
            len = 1 + rng.nextBounded(8);
        }
        for (unsigned i = 0; i < len && out.size() < n; ++i)
            out.push_back(shape);
    }
    return out;
}

/** The greedy-tage adapt preset's TAGE: the RLE-2 cascade on and a
 * higher confidence bar. */
PredictorSpec
greedyTageSpec()
{
    TagePredictorConfig cfg;
    cfg.rleAssist = true;
    cfg.confThreshold = 3;
    return PredictorSpec::tageSpec(cfg);
}

struct Case
{
    std::string name;
    PredictorSpec changeTable;
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

class TrackerAllocation : public ::testing::TestWithParam<Case>
{
};

TEST_P(TrackerAllocation, NoHeapAllocationAfterWarmUp)
{
    PhaseTrackerConfig cfg;
    cfg.changeTable = GetParam().changeTable;
    PhaseTracker tracker(cfg);
    const auto raws =
        snapshots(tracker.classifier().config().numCounters);
    const std::vector<unsigned> shapes =
        shapeStream(kWarmIntervals + kCountedIntervals);

    auto step = [&](int i) {
        const unsigned s = shapes[i];
        return tracker.onIntervalRaw(raws[s].data(), raws[s].size(),
                                     10000, 1.0 + 0.5 * s);
    };
    for (int i = 0; i < kWarmIntervals; ++i)
        step(i);

    unsigned inserted = 0, changes = 0, tableHits = 0;
    const std::uint64_t before =
        gAllocations.load(std::memory_order_relaxed);
    for (int i = kWarmIntervals; i < kWarmIntervals + kCountedIntervals;
         ++i) {
        const PhaseTrackerOutput out = step(i);
        inserted += out.classification.inserted;
        changes += out.phaseChanged;
        tableHits +=
            out.nextPhase.source == PredictionSource::ChangeTable;
    }
    const std::uint64_t allocations =
        gAllocations.load(std::memory_order_relaxed) - before;

    // The stream exercises what it claims to: only recurring phases,
    // many changes, and change-table predictions.
    EXPECT_EQ(inserted, 0u);
    EXPECT_GT(changes, 1000u);
    EXPECT_GT(tableHits, 0u);
    EXPECT_EQ(allocations, 0u)
        << GetParam().name << " allocated on the warm interval path";
}

INSTANTIATE_TEST_SUITE_P(
    Predictors, TrackerAllocation,
    ::testing::Values(
        Case{"default", PhaseTrackerConfig{}.changeTable},
        Case{"markov1",
             PredictorSpec::tableSpec(ChangePredictorConfig::markov(1))},
        Case{"markov2",
             PredictorSpec::tableSpec(ChangePredictorConfig::markov(2))},
        Case{"rle1",
             PredictorSpec::tableSpec(ChangePredictorConfig::rle(1))},
        Case{"rle2",
             PredictorSpec::tableSpec(ChangePredictorConfig::rle(2))},
        Case{"rle4",
             PredictorSpec::tableSpec(ChangePredictorConfig::rle(4))},
        Case{"last4markov1",
             PredictorSpec::tableSpec(ChangePredictorConfig::markov(
                 1, PayloadView::Last4))},
        Case{"top4rle2", PredictorSpec::tableSpec(
                             ChangePredictorConfig::rle(
                                 2, PayloadView::Top4))},
        Case{"tage", PredictorSpec::tageSpec()},
        Case{"greedy_tage", greedyTageSpec()}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return info.param.name;
    });

} // namespace
