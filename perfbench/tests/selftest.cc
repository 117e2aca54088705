/**
 * @file
 * Tests of perfbench's own helpers: percentiles, the set-up timer,
 * span self time, the digest, and the measuring clock with its
 * host-speed reference. Run by `ctest` in the perfbench build
 * directory, and by run.py after every build.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "tracer.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest line %d: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT(percentileSorted(v, 50) == 50);
    EXPECT(percentileSorted(v, 99) == 99);
    EXPECT(percentileSorted(v, 100) == 100);
    EXPECT(percentileSorted(v, 0) == 1);
    EXPECT(percentileSorted({7.0}, 99) == 7.0);
    EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
    EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.0);

    EXPECT(samplesBeyond(100, 50) == 50);
    EXPECT(samplesBeyond(100, 99) == 1);
    EXPECT(samplesBeyond(1000, 99) == 10);
    // p99 needs 1000 samples for ten beyond it; p99.9 needs 10000.
    EXPECT(highestSupportedPercentile(1000) == 99.0);
    EXPECT(highestSupportedPercentile(999) == 90.0);
    EXPECT(highestSupportedPercentile(10000) == 99.9);
    EXPECT(highestSupportedPercentile(15) == 0.0);
    EXPECT(highestSupportedPercentile(20) == 50.0);

    // Every call runs once, numbered across samples; each sample is
    // per call.
    std::vector<int> calls;
    SetupTimer setup(4, RefShape::Chase);
    setup.sample([&](int i) { calls.push_back(i); });
    setup.sampleEveryCpu([&](int i) { calls.push_back(i); });
    EXPECT(setup.count() == 1 + std::max(1u, cpuSlots()));
    EXPECT(calls.size() == 4 * setup.count());
    for (int i = 0; i < static_cast<int>(calls.size()); ++i)
        EXPECT(calls[static_cast<std::size_t>(i)] == i);
    EXPECT(setup.seconds() >= 0.0 && setup.seconds() < 0.01);
}

Span
span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
     std::int64_t end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.run = parent == 0 ? id : parent;
    s.name = "s" + std::to_string(id);
    s.startNs = start;
    s.endNs = end;
    return s;
}

void
testSelfTime()
{
    // Root [0,100) with children [10,30), [20,50) (overlapping) and
    // [90,120) (clipped at the root's end); grandchild [12,18).
    const std::vector<Span> spans = {
        span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
        span(4, 1, 90, 120), span(5, 2, 12, 18)};
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT(self[0] == 100 - 40 - 10);
    EXPECT(self[1] == 20 - 6);
    EXPECT(self[2] == 30);
    EXPECT(self[3] == 30);
    EXPECT(self[4] == 6);

    const auto totals = totalsByName(spans);
    EXPECT(totals.at("s1").count == 1);
    EXPECT(std::abs(totals.at("s1").selfS - 50e-9) < 1e-15);
    EXPECT(std::abs(totals.at("s1").totalS - 100e-9) < 1e-15);

    Tracer t(true, 0);
    const std::uint64_t outer = t.begin("outer");
    const std::uint64_t inner = t.begin("inner");
    t.end(inner);
    t.add("added", 5, 6);
    t.end(outer);
    EXPECT(t.spans().size() == 3);
    EXPECT(t.spans()[1].parent == outer);
    EXPECT(t.spans()[1].run == outer);
    EXPECT(t.spans()[2].parent == outer);
    EXPECT(t.spans()[0].endNs >= t.spans()[0].startNs);

    Tracer off(false, 0);
    EXPECT(off.begin("x") == 0);
    off.end(0);
    EXPECT(off.spans().empty());
}

void
testDigest()
{
    EXPECT(Digest().value() == 0xcbf29ce484222325ULL);
    EXPECT(Digest().bytes("a", 1).value() == 0xaf63dc4c8601ec8cULL);
    EXPECT(Digest().bytes("foobar", 6).value() == 0x85944171f73967e8ULL);
    EXPECT(hex64(0xaf63dc4c8601ec8cULL) == "af63dc4c8601ec8c");
    // Typed values hash their exact bits and lengths.
    EXPECT(Digest().f64(0.0).value() != Digest().f64(-0.0).value());
    EXPECT(Digest().u32s({1, 2}).value() != Digest().u32s({1, 2, 0}).value());
    EXPECT(Digest().str("ab").str("c").value() !=
           Digest().str("a").str("bc").value());
}

void
testReference()
{
    EXPECT(atReference(2.0, 1.0) == 2.0);
    EXPECT(atReference(1.0, 2.0) == 0.5);
    for (RefShape shape : {RefShape::Chase, RefShape::Stream}) {
        const double slow = hostSlowdown(shape);
        EXPECT(slow > 0.1 && slow < 100.0);
    }

    // The measuring clock stands still while the thread sleeps.
    const std::int64_t cpu0 = nowNs(), wall0 = wallNs();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT(wallNs() - wall0 >= 50'000'000);
    EXPECT(nowNs() - cpu0 < 10'000'000);

    // A probe samples beside a busy caller, and the caller's clock
    // leaves the probe's work out.
    pinToSlot(0);
    SpeedProbe probe(0);
    const std::int64_t busy0 = nowNs(), start = wallNs();
    while (wallNs() - start < 200'000'000) {
    }
    const std::int64_t busy = nowNs() - busy0;
    probe.stop();
    unpin();
    EXPECT(probe.count() >= 2);
    EXPECT(probe.slowdown() > 0.0);
    EXPECT(busy <= wallNs() - start);
}

void
testResultJson()
{
    EXPECT(formatNumber(0.1) == "0.1");
    EXPECT(formatNumber(1234567.890625) == "1234567.890625");
    RunResult r;
    r.check(true, "fine");
    r.add("setup_s", 0.5, "s");
    EXPECT(resultJson(r) ==
           "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
           "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": "
           "\"s\"}}}");
    r.check(false, "broken");
    EXPECT(!r.correct());
    EXPECT(r.failed == 1 && r.attempted == 2);
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testDigest();
    testReference();
    testResultJson();
    if (failures == 0)
        std::printf("perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
