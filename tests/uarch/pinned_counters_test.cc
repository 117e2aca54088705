/**
 * @file
 * Pinned timing-model counters: both cores run the first 2 M
 * instructions of four paper workloads and must reproduce every
 * counter they expose - cycles, per-cache accesses, misses and
 * writebacks, I/D-TLB accesses and misses, branches and mispredicts -
 * exactly. The values were recorded from the tick-LRU cache and TLB
 * models; any change to replacement, victim choice, dirty tracking or
 * core timing moves at least one of them.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <ostream>
#include <string>

#include "uarch/cache_hierarchy.hh"
#include "uarch/simulator.hh"
#include "workload/workload.hh"

using namespace tpcp;
using namespace tpcp::uarch;

namespace
{

constexpr InstCount kInsts = 2'000'000;

/** Every counter a core exposes after a run, in a fixed order. */
using Counters = std::array<std::uint64_t, 19>;

const char *const kCounterNames[] = {
    "cycles",        "insts",           "loads",
    "stores",        "branches",        "mispredicts",
    "icache.acc",    "icache.miss",     "icache.wb",
    "dcache.acc",    "dcache.miss",     "dcache.wb",
    "l2.acc",        "l2.miss",         "l2.wb",
    "itlb.acc",      "itlb.miss",       "dtlb.acc",
    "dtlb.miss",
};

struct Pinned
{
    const char *workload;
    const char *core;
    Counters counters;
};

/** Keeps pointer bytes out of the listed test name. */
void
PrintTo(const Pinned &p, std::ostream *os)
{
    *os << p.workload << ' ' << p.core;
}

Counters
run(const std::string &name, const std::string &core_name)
{
    const workload::Workload wl = workload::makeWorkload(name);
    const MachineConfig machine = MachineConfig::table1();
    // The core and seed trace::buildProfile uses.
    std::unique_ptr<TimingCore> core = makeCore(core_name, machine);
    auto schedule = wl.makeSchedule();
    Simulator sim(wl.program, *schedule, *core, wl.simSeed());
    EXPECT_EQ(sim.run(kInsts), kInsts);

    const CacheHierarchy &h = core->memoryHierarchy();
    const CoreStats &s = core->stats();
    return {core->cycles(),
            s.insts,
            s.loads,
            s.stores,
            s.branches,
            s.branchMispredicts,
            h.icache().stats().accesses,
            h.icache().stats().misses,
            h.icache().stats().writebacks,
            h.dcache().stats().accesses,
            h.dcache().stats().misses,
            h.dcache().stats().writebacks,
            h.l2cache().stats().accesses,
            h.l2cache().stats().misses,
            h.l2cache().stats().writebacks,
            h.itlb().stats().accesses,
            h.itlb().stats().misses,
            h.dtlb().stats().accesses,
            h.dtlb().stats().misses};
}

const Pinned kPinned[] = {
    {"mcf", "ooo",
     {15732763, 2000000, 606833, 86895, 104559, 41340, 306071, 35, 0,
      693728, 386066, 76162, 386101, 203224, 53868, 306071, 1, 693728,
      100980}},
    {"mcf", "simple",
     {26833562, 2000000, 606833, 86895, 104559, 41340, 286842, 35, 0,
      693728, 386066, 76162, 386101, 203224, 53868, 286842, 1, 693728,
      100980}},
    {"gcc/1", "ooo",
     {5328852, 2000000, 473215, 141208, 155444, 30644, 336073, 950, 0,
      614423, 214557, 92842, 215507, 48459, 19850, 336073, 5, 614423, 64}},
    {"gcc/1", "simple",
     {7169598, 2000000, 473215, 141208, 155444, 30644, 320324, 950, 0,
      614423, 214557, 92842, 215507, 48459, 19850, 320324, 5, 614423, 64}},
    {"perl/d", "ooo",
     {7815492, 2000000, 486447, 225188, 242170, 77155, 414779, 61, 0,
      711635, 379707, 159939, 379768, 81788, 45963, 414779, 1, 711635,
      35}},
    {"perl/d", "simple",
     {10888967, 2000000, 486447, 225188, 242170, 77155, 373733, 61, 0,
      711635, 379707, 159939, 379768, 81788, 45963, 373733, 1, 711635,
      35}},
    {"gzip/p", "ooo",
     {2763449, 2000000, 539906, 190190, 160936, 46999, 373665, 41, 0,
      730096, 222319, 110922, 222360, 13572, 9301, 373665, 2, 730096, 23}},
    {"gzip/p", "simple",
     {3889151, 2000000, 539906, 190190, 160936, 46999, 348292, 41, 0,
      730096, 222319, 110922, 222360, 13572, 9301, 348292, 2, 730096, 23}},
};

class PinnedCounters : public ::testing::TestWithParam<Pinned>
{
};

} // namespace

TEST_P(PinnedCounters, MatchRecordedRun)
{
    const Pinned &p = GetParam();
    const Counters got = run(p.workload, p.core);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], p.counters[i]) << kCounterNames[i];
}

INSTANTIATE_TEST_SUITE_P(
    Table1, PinnedCounters, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<Pinned> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           info.param.core;
        for (char &c : name)
            if (c == '/')
                c = '_';
        return name;
    });

