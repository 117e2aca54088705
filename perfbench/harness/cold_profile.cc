/**
 * @file
 * cold-profile: whole-model interval profiles built through
 * trace::getProfile into an empty cache directory on the OoO core,
 * one model per worker thread at a time. uarch simulation plus the interval
 * profiler do nearly all of the work here and none of it in the
 * other workloads.
 *
 * The subset contrasts the models' simulation behaviour: mcf is
 * miss-dominated, gcc/1 has big code and short phases, perl/d is
 * dispatch-dominated and gzip/p runs long stable deflate loops.
 * Models are fixed (the seed only orders the workers), so the rate
 * does not depend on the seed.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "trace/profile_cache.hh"
#include "trace/trace_file.hh"
#include "uarch/machine_config.hh"
#include "uarch/ooo_core.hh"
#include "uarch/simple_core.hh"
#include "uarch/simulator.hh"
#include "uarch/stats_report.hh"
#include "workload/workload.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace tpcp;

namespace perfbench
{

namespace
{

const std::vector<std::string> kModels = {"mcf", "gcc/1", "perl/d",
                                          "gzip/p"};
/** Builds of the four models per set-up sample (see SetupTimer). */
constexpr int kSetupBatch = 10;
/** Nominal seconds of one round (four builds on two workers) on a
 * 4-vCPU 2.1 GHz Xeon; --seconds buys rounds at this rate. */
constexpr double kRoundSeconds = 15.0;

struct ProfileFacts
{
    std::uint64_t digest = 0;
    std::uint64_t intervals = 0;
    std::uint64_t insts = 0;
    /** Simulated cycles the profile records: sum of cpi * insts. */
    std::uint64_t cycles = 0;
    /** Build seconds at the reference host's speed, and as timed. */
    double seconds = 0.0;
    double rawSeconds = 0.0;
};

ProfileFacts
factsOf(const trace::IntervalProfile &p)
{
    ProfileFacts f;
    const std::vector<std::uint8_t> bytes = trace::encodeTrace(p, "");
    f.digest = trace::fnv1a64(bytes.data(), bytes.size());
    f.intervals = p.numIntervals();
    double cycles = 0.0;
    for (const trace::IntervalRecord &r : p.intervals()) {
        f.insts += r.insts;
        cycles += r.cpi * static_cast<double>(r.insts);
    }
    f.cycles = static_cast<std::uint64_t>(std::llround(cycles));
    return f;
}

/** One simulation with no sinks attached, on the named core. */
struct SimProbe
{
    uarch::AccessCounts counts;
    double seconds = 0.0;
};

SimProbe
simulateBare(const workload::Workload &wl, const std::string &core_name,
             Tracer &tracer)
{
    const uarch::MachineConfig machine = uarch::MachineConfig::table1();
    std::unique_ptr<uarch::TimingCore> core;
    if (core_name == "ooo")
        core = std::make_unique<uarch::OooCore>(machine);
    else
        core = std::make_unique<uarch::SimpleCore>(machine);
    auto schedule = wl.makeSchedule();
    // Same simulator seed as trace::buildProfile, so the bare run
    // simulates exactly the instructions the profile recorded.
    uarch::Simulator sim(wl.program, *schedule, *core,
                         wl.seed ^ 0xabcdef12345ULL);
    SimProbe probe;
    const std::int64_t t0 = nowNs();
    {
        SpanScope span(tracer, "uarch.Simulator::run:" + core_name);
        sim.run();
    }
    probe.seconds = secondsSince(t0);
    probe.counts = uarch::collectAccessCounts(*core);
    return probe;
}

/**
 * Worker threads. On a shared 4-vCPU VM the host grants about 2.5 of
 * the 4 vCPUs under contention, so four busy threads are throttled by a
 * varying share; two stay clear of that.
 */
constexpr unsigned kWorkers = 2;

/** Runs fn(i) for every model, kWorkers at a time, taking models in
 * seed order. */
template <typename Fn>
void
forEachModelParallel(const std::vector<std::size_t> &order, Fn fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWorkers; ++w)
        threads.emplace_back([&] {
            for (std::size_t k = next++; k < order.size(); k = next++)
                fn(order[k]);
        });
    for (std::thread &t : threads)
        t.join();
}

} // namespace

RunResult
runColdProfile(RunConfig &cfg)
{
    RunResult r;
    const std::size_t n = kModels.size();
    std::vector<Tracer> tracers;
    for (std::size_t i = 0; i <= n; ++i)
        tracers.emplace_back(cfg.trace, std::uint64_t(i) << 40);
    Tracer &mainTracer = tracers[n];

    // Seeded worker order (thread start order only).
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    SplitMix64 rng(cfg.seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);

    // Set-up: building the workload models (program + script).
    std::vector<workload::Workload> models;
    auto buildModels = [&](int) {
        std::vector<workload::Workload> built;
        for (const std::string &name : kModels) {
            SpanScope span(mainTracer, "workload.makeWorkload");
            built.push_back(workload::makeWorkload(name));
        }
        models = std::move(built);
    };
    SetupTimer setup(kSetupBatch, RefShape::Chase);
    setup.sampleEveryCpu(buildModels);

    // "<kind> <model>" -> the rest of its reference line.
    std::map<std::string, std::string> refs;
    for (const auto &line :
         readRefLines(cfg.refsDir + "/cold-profile.txt")) {
        std::string rest;
        for (std::size_t k = 2; k < line.size(); ++k)
            rest += (k > 2 ? " " : "") + line[k];
        if (line.size() >= 2)
            refs[line[0] + " " + line[1]] = rest;
    }

    std::vector<double> buildSeconds;
    std::uint64_t simInsts = 0;
    double simSeconds = 0.0, rawSeconds = 0.0;
    std::vector<ProfileFacts> facts(n);
    std::vector<trace::IntervalProfile> profiles(n);
    std::vector<std::string> refOut;
    trace::ProfileCacheStats lastStats;

    // One round builds every model once into a fresh, empty cache.
    auto round = [&](int index, bool traced) {
        const std::string dir =
            cfg.workDir + "/cold-" + std::to_string(index);
        fs::remove_all(dir);
        trace::ProfileOptions opts;
        opts.cacheDir = dir;
        trace::resetProfileCacheStats();
        forEachModelParallel(order, [&](std::size_t i) {
            const unsigned slot = static_cast<unsigned>(i + index);
            pinToSlot(slot);
            Tracer off(false, 0);
            Tracer &t = traced ? tracers[i] : off;
            // A build takes seconds and cannot be split, so the
            // reference work is sampled beside it on its CPU. A traced
            // run times raw seconds, as its spans do.
            std::optional<SpeedProbe> probe;
            if (!cfg.trace)
                probe.emplace(slot);
            const std::int64_t t0 = nowNs();
            {
                SpanScope span(t, "trace.getProfile");
                profiles[i] = trace::getProfile(models[i], opts);
            }
            const double raw = secondsSince(t0);
            double secs = raw;
            if (probe) {
                probe->stop();
                secs = atReference(raw, probe->slowdown());
            }
            facts[i] = factsOf(profiles[i]);
            facts[i].seconds = secs;
            facts[i].rawSeconds = raw;
        });
        lastStats = trace::profileCacheStats();
        r.check(lastStats.builds == n && lastStats.hits == 0,
                "cold round did not simulate every model");
        double secs = 0.0;
        std::uint64_t insts = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const ProfileFacts &f = facts[i];
            secs += f.seconds;
            insts += f.insts;
            const std::string key = "profile " + kModels[i];
            const std::string got =
                hex64(f.digest) + " " + std::to_string(f.intervals) +
                " " + std::to_string(f.insts) + " " +
                std::to_string(f.cycles);
            if (cfg.writeRefs && index == 0)
                refOut.push_back(key + " " + got);
            r.check(cfg.writeRefs || refs[key] == got,
                    kModels[i] + " profile (digest intervals insts "
                                 "cycles) " + got + " != reference " +
                        refs[key]);
        }
        fs::remove_all(dir);
        return std::make_pair(insts, secs);
    };

    if (!cfg.trace) {
        // A fixed number of rounds for --seconds, so the tail figure
        // is always over the same number of builds.
        const int rounds = std::max(
            1, static_cast<int>(std::lround(cfg.seconds / kRoundSeconds)));
        for (int index = 0; index < rounds; ++index) {
            auto [insts, secs] = round(index, false);
            simInsts += insts;
            simSeconds += secs;
            for (const ProfileFacts &f : facts) {
                buildSeconds.push_back(f.seconds);
                rawSeconds += f.rawSeconds;
            }
            setup.sampleEveryCpu(buildModels);
        }

        const double rate = static_cast<double>(simInsts) / simSeconds;
        std::sort(buildSeconds.begin(), buildSeconds.end());
        r.add("throughput_per_s", rate, "1/s");
        r.add("latency_p50_us", percentileSorted(buildSeconds, 50) * 1e6,
              "us");
        r.add("latency_p99_us", percentileSorted(buildSeconds, 99) * 1e6,
              "us");
        addSetupAndRss(r, setup.seconds());
        std::printf("cold-profile: sim_minst_per_s %.4f Minst/s at the "
                    "reference speed (%.4f unscaled) over %zu "
                    "builds of %zu models (per worker thread)\n",
                    rate * 1e-6,
                    static_cast<double>(simInsts) / rawSeconds * 1e-6,
                    buildSeconds.size(), n);
        std::printf("cold-profile: build latency p50 %.3f s, slowest "
                    "%.3f s (%zu samples: too few for a tail "
                    "percentile)\n",
                    percentileSorted(buildSeconds, 50),
                    buildSeconds.back(), buildSeconds.size());
        return r;
    }

    // ---- Traced run: per-layer numbers. ----
    // A traced and an untraced round: their ratio is the tracing
    // overhead (four spans per round, so it reads as noise around 1).
    const double tracedSecs = round(0, true).second;
    const double plainSecs = round(1, false).second;

    std::vector<SimProbe> ooo(n), simple(n);
    forEachModelParallel(order, [&](std::size_t i) {
        pinToSlot(static_cast<unsigned>(i));
        ooo[i] = simulateBare(models[i], "ooo", tracers[i]);
    });
    forEachModelParallel(order, [&](std::size_t i) {
        pinToSlot(static_cast<unsigned>(i));
        simple[i] = simulateBare(models[i], "simple", tracers[i]);
    });

    // Profile save cost, by the public save call on each profile.
    double saveSecs = 0.0;
    {
        const std::string dir = cfg.workDir + "/cold-save";
        fs::create_directories(dir);
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t t0 = nowNs();
            bool ok = false;
            {
                SpanScope span(mainTracer, "trace.IntervalProfile::save");
                ok = profiles[i].save(dir + "/p" + std::to_string(i));
            }
            saveSecs += secondsSince(t0);
            r.check(ok, "profile save failed");
        }
        fs::remove_all(dir);
    }

    double oooSecs = 0.0, simpleSecs = 0.0;
    std::uint64_t oooInsts = 0, simpleInsts = 0;
    uarch::AccessCounts sum;
    for (std::size_t i = 0; i < n; ++i) {
        const uarch::AccessCounts &c = ooo[i].counts;
        oooSecs += ooo[i].seconds;
        oooInsts += c.insts;
        simpleSecs += simple[i].seconds;
        simpleInsts += simple[i].counts.insts;
        sum.cycles += c.cycles;
        sum.icacheAccesses += c.icacheAccesses;
        sum.dcacheAccesses += c.dcacheAccesses;
        sum.l2Accesses += c.l2Accesses;
        const std::string key = "access " + kModels[i];
        const std::string got =
            std::to_string(c.cycles) + " " +
            std::to_string(c.icacheAccesses) + " " +
            std::to_string(c.dcacheAccesses) + " " +
            std::to_string(c.l2Accesses);
        if (cfg.writeRefs)
            refOut.push_back(key + " " + got);
        r.check(cfg.writeRefs || refs[key] == got,
                kModels[i] + " OoO access counts " + got +
                    " != reference " + refs[key]);
    }

    if (cfg.writeRefs) {
        std::ofstream out(cfg.refsDir + "/cold-profile.txt");
        out << "# cold-profile references, regenerated with\n"
               "#   perfbench --workload cold-profile --trace 1 "
               "--write-refs\n"
               "# profile <model> <fnv1a64(encodeTrace)> <intervals> "
               "<insts> <cycles>\n"
               "# access <model> <cycles> <icache> <dcache> <l2> "
               "(OooCore, no sinks)\n";
        for (const std::string &line : refOut)
            out << line << "\n";
        r.check(static_cast<bool>(out), "cannot write references");
    }

    for (const Tracer &t : tracers)
        cfg.spans.insert(cfg.spans.end(), t.spans().begin(),
                         t.spans().end());
    const auto totals = totalsByName(cfg.spans);
    auto selfOf = [&](const std::string &name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfS;
    };
    const double getProfileSecs = selfOf("trace.getProfile");

    r.add("workload.build_s", setup.seconds(), "s");
    r.add("uarch.ooo_minst_per_s",
          static_cast<double>(oooInsts) / oooSecs * 1e-6, "Minst/s");
    r.add("uarch.simple_minst_per_s",
          static_cast<double>(simpleInsts) / simpleSecs * 1e-6,
          "Minst/s");
    r.add("uarch.self_s",
          selfOf("uarch.Simulator::run:ooo") +
              selfOf("uarch.Simulator::run:simple"),
          "s");
    r.add("uarch.cycles", static_cast<double>(sum.cycles), "count");
    r.add("uarch.icache_accesses",
          static_cast<double>(sum.icacheAccesses), "count");
    r.add("uarch.dcache_accesses",
          static_cast<double>(sum.dcacheAccesses), "count");
    r.add("uarch.l2_accesses", static_cast<double>(sum.l2Accesses),
          "count");
    // getProfile = simulate + profile + save; the bare simulation and
    // the save call are timed on their own, the rest is the profiler.
    r.add("trace.profiler_self_s",
          std::max(0.0, getProfileSecs - oooSecs - saveSecs), "s");
    r.add("trace.profile_save_s", saveSecs, "s");
    r.add("trace.cache_builds", static_cast<double>(lastStats.builds),
          "count");
    r.add("trace.cache_hits", static_cast<double>(lastStats.hits),
          "count");
    r.add("bench.trace_overhead", tracedSecs / plainSecs, "ratio");
    std::printf("cold-profile: getProfile %.3f s = simulate %.3f s + "
                "save %.3f s + profiler; SimpleCore is %.2fx OooCore\n",
                getProfileSecs, oooSecs, saveSecs,
                (static_cast<double>(simpleInsts) / simpleSecs) /
                    (static_cast<double>(oooInsts) / oooSecs));
    return r;
}

} // namespace perfbench
