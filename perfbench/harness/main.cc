/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --root DIR [--profiles PDIR] [--write-refs]
 *   perfbench --prep --root DIR --profiles PDIR
 *
 * NAME is cold-profile, warm-replay or serve-steady. DIR is the
 * repository checkout; scratch files go under DIR/.bench_build/perfbench
 * and references live in DIR/perfbench/refs. PDIR is the warm profile
 * cache that warm-replay loads; --prep fills it (untimed, idempotent).
 * run.py names it after a hash of the sources, so a cache filled by
 * other code is never replayed. The last stdout line is the run's
 * JSON result.
 * Exit status: 0 when every correctness gate passed, 1 when one
 * failed, 2 on a usage or run error.
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "trace/profile_cache.hh"
#include "workload/workload.hh"
#include "workloads.hh"

namespace fs = std::filesystem;

namespace perfbench
{

void
addSetupAndRss(RunResult &r, double setup_s)
{
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peakRssMb(), "MB");
}

std::vector<std::vector<std::string>>
readRefLines(const std::string &path)
{
    std::vector<std::vector<std::string>> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::vector<std::string> words;
        for (std::string w; fields >> w;)
            words.push_back(w);
        if (!words.empty())
            lines.push_back(std::move(words));
    }
    return lines;
}

int
prepWarmCache(const std::string &profile_dir, unsigned jobs)
{
    const std::vector<std::string> &names = tpcp::workload::workloadNames();
    std::atomic<std::size_t> next{0};
    std::atomic<int> errors{0};
    std::vector<std::thread> pool;
    for (unsigned j = 0; j < jobs; ++j)
        pool.emplace_back([&] {
            for (std::size_t i = next++; i < names.size(); i = next++) {
                try {
                    tpcp::trace::ProfileOptions opts;
                    opts.cacheDir = profile_dir;
                    tpcp::trace::getProfileByName(names[i], opts);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "prep %s: %s\n",
                                 names[i].c_str(), e.what());
                    ++errors;
                }
            }
        });
    for (std::thread &t : pool)
        t.join();
    return errors == 0 ? 0 : 2;
}

namespace
{

/** Every per-layer metric, in BENCHMARK.json order. A traced run
 * reports 0 for the layers its workload does not exercise. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"workload.build_s", "s"},
    {"uarch.ooo_minst_per_s", "Minst/s"},
    {"uarch.simple_minst_per_s", "Minst/s"},
    {"uarch.self_s", "s"},
    {"uarch.cycles", "count"},
    {"uarch.icache_accesses", "count"},
    {"uarch.dcache_accesses", "count"},
    {"uarch.l2_accesses", "count"},
    {"trace.profiler_self_s", "s"},
    {"trace.profile_save_s", "s"},
    {"trace.profile_load_s", "s"},
    {"trace.parse_mb_per_s", "MB/s"},
    {"trace.cache_builds", "count"},
    {"trace.cache_hits", "count"},
    {"phase.classify_intervals_per_s", "1/s"},
    {"phase.evictions", "count"},
    {"phase.insertions", "count"},
    {"phase.threshold_halvings", "count"},
    {"pred.rle2_obs_per_s", "1/s"},
    {"pred.markov1_obs_per_s", "1/s"},
    {"pred.last4markov1_obs_per_s", "1/s"},
    {"pred.tage_obs_per_s", "1/s"},
    {"pred.perceptron_obs_per_s", "1/s"},
    {"pred.length_obs_per_s", "1/s"},
    {"pred.tracker_intervals_per_s", "1/s"},
    {"analysis.kmeans_s", "s"},
    {"sample.estimate_s", "s"},
    {"fault.campaign_intervals_per_s", "1/s"},
    {"serve.decode_ns", "ns"},
    {"serve.push_ns", "ns"},
    {"serve.flow_sched_ns", "ns"},
    {"serve.cycle_busy_share", "ratio"},
    {"serve.cycle_frames_p50", "count"},
    {"serve.ring_backlog_max", "count"},
    {"serve.resident_hit_ratio", "ratio"},
    {"serve.checkpoint_save_us", "us"},
    {"serve.checkpoint_load_us", "us"},
    {"serve.evictions", "count"},
    {"serve.resumes", "count"},
    {"serve.shed", "count"},
    {"bench.gen_late_p99_us", "us"},
    {"bench.trace_overhead", "ratio"},
    {"bench.stage_coverage", "ratio"},
};

/** Orders a traced run's metrics as kPerLayer, filling the layers
 * the workload does not exercise with 0. */
void
completePerLayer(RunResult &r)
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : kPerLayer) {
        Metric m{name, 0.0, unit};
        for (const Metric &have : r.metrics)
            if (have.name == name)
                m = have;
        out.push_back(m);
    }
    for (const Metric &have : r.metrics) {
        bool known = false;
        for (const Metric &m : out)
            known = known || m.name == have.name;
        r.check(known, "unlisted per-layer metric " + have.name);
    }
    r.metrics = std::move(out);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --root DIR [--profiles PDIR] "
                 "[--write-refs]\n"
                 "       perfbench --prep --root DIR --profiles PDIR\n");
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    cpuSlots(); // record the starting CPU set before anything pins
    RunConfig cfg;
    std::string root;
    bool prep = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                cfg.workload = value();
            else if (a == "--seed")
                cfg.seed = std::stoull(value());
            else if (a == "--seconds")
                cfg.seconds = std::stod(value());
            else if (a == "--trace")
                cfg.trace = value() != "0";
            else if (a == "--root")
                root = value();
            else if (a == "--profiles")
                cfg.profileDir = value();
            else if (a == "--write-refs")
                cfg.writeRefs = true;
            else if (a == "--prep")
                prep = true;
            else
                return usage();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return usage();
        }
    }
    if (root.empty() || !(cfg.seconds > 0.0))
        return usage();

    const fs::path base = fs::path(root) / ".bench_build" / "perfbench";
    cfg.refsDir = (fs::path(root) / "perfbench" / "refs").string();
    if ((prep || cfg.workload == "warm-replay") && cfg.profileDir.empty())
        return usage();
    if (prep)
        return prepWarmCache(cfg.profileDir, 4);

    cfg.workDir = (base / "work" /
                   (cfg.workload + "-" + std::to_string(getpid())))
                      .string();
    fs::remove_all(cfg.workDir);
    fs::create_directories(cfg.workDir);

    RunResult r;
    int status = 0;
    try {
        if (cfg.workload == "cold-profile")
            r = runColdProfile(cfg);
        else if (cfg.workload == "warm-replay")
            r = runWarmReplay(cfg);
        else if (cfg.workload == "serve-steady")
            r = runServe(cfg);
        else {
            fs::remove_all(cfg.workDir);
            return usage();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench %s: %s\n", cfg.workload.c_str(),
                     e.what());
        status = 2;
    }
    fs::remove_all(cfg.workDir);
    if (status != 0)
        return status;

    if (cfg.trace) {
        completePerLayer(r);
        const fs::path spansDir = base / "spans";
        fs::create_directories(spansDir);
        const std::string path =
            (spansDir / (cfg.workload + "-seed" +
                         std::to_string(cfg.seed) + ".jsonl"))
                .string();
        r.check(writeSpans(path, cfg.spans), "cannot write " + path);
        std::printf("%s: %zu spans written to %s\n", cfg.workload.c_str(),
                    cfg.spans.size(), path.c_str());
    }
    const double failRatio =
        r.attempted == 0 ? 0.0
                         : static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted);
    std::printf("%s: fail_ratio %g (%llu failed of %llu attempted)\n",
                cfg.workload.c_str(), failRatio,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const std::string &e : r.errors)
        std::printf("%s: CHECK FAILED: %s\n", cfg.workload.c_str(),
                    e.c_str());
    for (const Metric &m : r.metrics)
        std::printf("%s: %-32s %.6g %s\n", cfg.workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s\n", resultJson(r).c_str());
    std::fflush(stdout);
    return r.correct() ? 0 : 1;
}
