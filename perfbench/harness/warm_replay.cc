/**
 * @file
 * warm-replay: the figure-suite replay over a warm profile cache.
 * The 11 paper profiles load from the benchmark-owned cache (filled
 * by the untimed prep step, as a user's warm cache is) and the four
 * adversarial families are generated from the seed and passed
 * through encodeTrace -> parseTrace, the ingest path of a recorded
 * trace. Then whole passes of a sweep run until the time is up:
 * a classifier configuration grid, the change predictors, run-length
 * prediction, online and offline (k-means) sampled simulation, and
 * an unmitigated and a mitigated fault campaign.
 *
 * phase/pred/analysis do the work here with zero simulation; the
 * sig-collision family drives the signature table's eviction path
 * while the paper models drive its match path.
 *
 * Correctness: the paper cells' digest (phase streams, predictor
 * accuracies, sample and fault results) must equal the reference in
 * refs/warm-replay.txt; the seeded adversarial cells have no stored
 * reference, so their ingest must round-trip byte for byte and every
 * pass must reproduce the first pass's digest.
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <set>

#include "analysis/experiment.hh"
#include "fault/resilience.hh"
#include "pred/eval.hh"
#include "pred/predictor_spec.hh"
#include "sample/report.hh"
#include "sample/selector.hh"
#include "trace/profile_cache.hh"
#include "trace/trace_file.hh"
#include "workload/adversarial.hh"
#include "workload/workload.hh"
#include "workloads.hh"

using namespace tpcp;

namespace perfbench
{

namespace
{

/** Loads per set-up sample (see SetupTimer), and the sweep passes
 * between two samples (not a multiple of the CPU count, so the
 * samples rotate over the CPUs with the passes). */
constexpr int kSetupBatch = 3;
constexpr std::uint64_t kSetupEvery = 5;
/** Cell time between two reference-work samples. */
constexpr std::int64_t kSegmentNs = 20'000'000;
/** Offline k-means costs ~100x a classifier replay, so only three
 * contrasting models take the offline sample cell; that keeps k-means
 * from dominating the sweep while leaving its cells (about 2% of
 * them) as the tail the p99 reports. */
const std::set<std::string> kOfflineModels = {"mcf", "gcc/1", "perl/d"};
const std::vector<std::string> kPredictors = {
    "rle2", "markov1", "last4markov1", "tage", "perceptron"};

struct Classifier
{
    std::string name;
    phase::ClassifierConfig cfg;
};

std::vector<Classifier>
classifierGrid()
{
    std::vector<Classifier> grid;
    grid.push_back({"paper", phase::ClassifierConfig::paperDefault()});
    grid.push_back(
        {"sherwood", phase::ClassifierConfig::sherwoodBaseline()});
    phase::ClassifierConfig small = phase::ClassifierConfig::paperDefault();
    small.tableEntries = 16;
    grid.push_back({"paper-t16", small});
    phase::ClassifierConfig wide = phase::ClassifierConfig::paperDefault();
    wide.numCounters = 32;
    grid.push_back({"paper-c32", wide});
    return grid;
}

/** One sweep cell: a call into one layer on one profile. */
struct Cell
{
    /** Span name: the public function it calls. */
    std::string span;
    /** Per-layer bucket the cell's observations count toward. */
    std::string layer;
    std::size_t profile = 0;
    /** Observations replayed (intervals or phase-stream entries). */
    std::uint64_t obs = 0;
    std::function<void(Digest &, phase::ClassifierStats &, Tracer &)> run;
};

struct Loaded
{
    std::vector<trace::IntervalProfile> profiles;
    /** Profiles [0, paperCount) are the paper models. */
    std::size_t paperCount = 0;
    double loadSecs = 0.0;
    double parseSecs = 0.0;
    std::uint64_t parseBytes = 0;
};

Loaded
loadProfiles(const std::string &profile_dir,
             const std::vector<std::vector<std::uint8_t>> &adv_bytes,
             Tracer &tracer)
{
    Loaded l;
    trace::ProfileOptions opts;
    opts.cacheDir = profile_dir;
    opts.requireCache = true;
    std::int64_t t0 = nowNs();
    for (const std::string &name : workload::workloadNames()) {
        SpanScope span(tracer, "trace.getProfile");
        l.profiles.push_back(trace::getProfileByName(name, opts));
    }
    l.loadSecs = secondsSince(t0);
    l.paperCount = l.profiles.size();
    t0 = nowNs();
    for (const auto &bytes : adv_bytes) {
        SpanScope span(tracer, "trace.parseTrace");
        l.profiles.push_back(
            trace::parseTrace(bytes, "<adversarial>").profile);
        l.parseBytes += bytes.size();
    }
    l.parseSecs = secondsSince(t0);
    return l;
}

void
digestClassification(Digest &d, const analysis::ClassificationResult &c)
{
    d.u32s(c.trace.phases).u64(c.numPhases).f64(c.covCpi);
    d.u64(c.classifierStats.insertions)
        .u64(c.classifierStats.evictions)
        .u64(c.classifierStats.thresholdHalvings)
        .u64(c.classifierStats.transitionIntervals);
}

/** Builds the sweep over @p profiles; @p traces receives the
 * paper-config phase stream of each profile (filled by the first
 * cells of each profile, read by the predictor cells after them). */
std::vector<Cell>
buildSweep(const Loaded &l,
           std::vector<std::vector<PhaseId>> &traces)
{
    std::vector<Cell> cells;
    const std::vector<Classifier> grid = classifierGrid();
    traces.assign(l.profiles.size(), {});
    for (std::size_t p = 0; p < l.profiles.size(); ++p) {
        const trace::IntervalProfile &prof = l.profiles[p];
        const std::uint64_t n = prof.numIntervals();
        for (std::size_t g = 0; g < grid.size(); ++g) {
            const phase::ClassifierConfig cfg = grid[g].cfg;
            const bool keep = g == 0;
            cells.push_back(
                {"analysis.classifyProfile", "classify", p, n,
                 [&prof, &traces, cfg, keep,
                  p](Digest &d, phase::ClassifierStats &stats, Tracer &) {
                     analysis::ClassificationResult c =
                         analysis::classifyProfile(prof, cfg);
                     digestClassification(d, c);
                     stats.insertions += c.classifierStats.insertions;
                     stats.evictions += c.classifierStats.evictions;
                     stats.thresholdHalvings +=
                         c.classifierStats.thresholdHalvings;
                     if (keep)
                         traces[p] = std::move(c.trace.phases);
                 }});
        }
        for (const std::string &name : kPredictors) {
            const pred::PredictorSpec spec =
                *pred::predictorSpecByName(name);
            cells.push_back(
                {"pred.eval:" + name, "pred." + name, p, 2 * n,
                 [&traces, spec, p](Digest &d, phase::ClassifierStats &,
                                    Tracer &) {
                     const pred::NextPhaseStats np =
                         pred::evalNextPhase(traces[p], spec);
                     const pred::ChangeOutcomeStats co =
                         pred::evalChangeOutcome(traces[p], spec);
                     d.u64(np.total).u64(np.correct()).u64(np.correctTable);
                     d.u64(co.changes).u64(co.confCorrect)
                         .u64(co.unconfCorrect).u64(co.tagMiss);
                 }});
        }
        cells.push_back(
            {"pred.evalRunLength", "pred.length", p, n,
             [&traces, p](Digest &d, phase::ClassifierStats &, Tracer &) {
                 const pred::RunLengthStats rl =
                     pred::evalRunLength(traces[p]);
                 d.u64(rl.predictions).u64(rl.correct).u64(rl.totalRuns);
                 for (std::uint64_t c : rl.classCounts)
                     d.u64(c);
             }});
        if (p >= l.paperCount)
            continue;
        for (sample::PhaseSource source :
             {sample::PhaseSource::Online, sample::PhaseSource::Offline}) {
            const bool offline = source == sample::PhaseSource::Offline;
            if (offline && !kOfflineModels.count(prof.workload()))
                continue;
            cells.push_back(
                {offline ? "sample.cell:offline" : "sample.cell:online",
                 "sample", p, n,
                 [&prof, source, offline](Digest &d,
                                          phase::ClassifierStats &,
                                          Tracer &t) {
                     std::vector<PhaseId> phases;
                     {
                         SpanScope span(t, offline
                                               ? "analysis.kmeans"
                                               : "sample.phaseIdStream");
                         phases = sample::phaseIdStream(prof, source);
                     }
                     SpanScope span(t, "sample.runSampledSimulation");
                     const sample::SampleReport rep =
                         sample::runSampledSimulation(
                             prof, phases, "stratified", source, 16);
                     d.u32s(phases).u64(rep.sampled);
                     d.f64(rep.estimatedCpi).f64(rep.relError);
                 }});
        }
        for (bool mitigated : {false, true}) {
            cells.push_back(
                {mitigated ? "fault.runResilience:mitigated"
                           : "fault.runResilience:unmitigated",
                 "fault", p, n,
                 [&prof, mitigated](Digest &d, phase::ClassifierStats &,
                                    Tracer &) {
                     fault::ResilienceOptions ro;
                     ro.injector.target = fault::Target::All;
                     ro.injector.ratePerInterval = 0.02;
                     ro.injector.mitigated = mitigated;
                     const fault::ResilienceReport rep =
                         fault::runResilience(prof, ro);
                     d.u64(rep.intervals).u64(rep.agreeingIntervals);
                     d.u64(rep.faults.total()).f64(rep.nextPhaseAccFaulty);
                     d.f64(rep.changeAccFaulty).f64(rep.lengthAccFaulty);
                 }});
        }
    }
    return cells;
}

} // namespace

RunResult
runWarmReplay(RunConfig &cfg)
{
    RunResult r;
    Tracer tracer(cfg.trace, 0);

    // Seeded adversarial inputs, encoded once as a recorded trace
    // would arrive (generation is the benchmark's, not timed).
    std::vector<std::vector<std::uint8_t>> advBytes;
    for (const std::string &family : workload::adversarialFamilies()) {
        workload::AdversarialSpec spec;
        spec.family = family;
        spec.seed = cfg.seed;
        advBytes.push_back(trace::encodeTrace(
            workload::makeAdversarial(spec).profile, "perfbench"));
    }

    trace::resetProfileCacheStats();
    Loaded loaded;
    std::vector<double> loads;
    auto load = [&](int call) {
        Tracer off(false, 0);
        Loaded l = loadProfiles(cfg.profileDir, advBytes,
                                call == 0 ? tracer : off);
        loads.push_back(l.loadSecs);
        if (call == 0)
            loaded = std::move(l);
    };
    SetupTimer setup(kSetupBatch, RefShape::Chase);
    setup.sampleEveryCpu(load);
    const trace::ProfileCacheStats cacheStats = trace::profileCacheStats();
    r.check(cacheStats.builds == 0,
            "warm cache missed: a profile was simulated");
    for (std::size_t a = 0; a < advBytes.size(); ++a)
        r.check(trace::encodeTrace(
                    loaded.profiles[loaded.paperCount + a],
                    "perfbench") == advBytes[a],
                "adversarial trace did not round-trip through "
                "parseTrace");

    std::vector<std::vector<PhaseId>> traces;
    const std::vector<Cell> cells = buildSweep(loaded, traces);

    std::vector<double> cellSeconds;
    std::uint64_t passes = 0, obs = 0;
    double cellTotal = 0.0, cellRaw = 0.0;
    std::uint64_t refPaper = 0, refAdv = 0;
    phase::ClassifierStats firstStats;
    std::vector<double> plainPass, tracedPass;
    const std::int64_t start = wallNs();
    double lastPass = 0.0;
    do {
        // A traced run alternates untraced and traced passes, for the
        // tracing overhead; the first (cold) pass counts for neither.
        const bool traced = cfg.trace && passes % 2 == 1;
        pinToSlot(static_cast<unsigned>(passes));
        if (passes > 0 && passes % kSetupEvery == 0)
            setup.sample(load);
        Tracer off(false, 0);
        Tracer &t = traced ? tracer : off;
        Digest paper, adv;
        phase::ClassifierStats stats;
        // Cells are timed in segments of about kSegmentNs, each
        // bracketed by reference work; a cell's time is reported at
        // the reference speed of its segment (a traced run's raw).
        std::vector<double> segment;
        double slow0 = hostSlowdown(RefShape::Chase);
        std::int64_t s0 = nowNs();
        auto closeSegment = [&] {
            const double slow1 = hostSlowdown(RefShape::Chase);
            for (double raw : segment) {
                const double s =
                    cfg.trace ? raw : atReference(raw, 0.5 * (slow0 + slow1));
                cellSeconds.push_back(s);
                cellTotal += s;
                cellRaw += raw;
            }
            segment.clear();
            slow0 = slow1;
            s0 = nowNs();
        };
        const std::int64_t p0 = nowNs();
        for (const Cell &c : cells) {
            Digest &d = c.profile < loaded.paperCount ? paper : adv;
            d.str(c.span).u64(c.profile);
            const std::int64_t c0 = nowNs();
            {
                SpanScope span(t, c.span);
                c.run(d, stats, t);
            }
            const std::int64_t c1 = nowNs();
            segment.push_back(static_cast<double>(c1 - c0) * 1e-9);
            obs += c.obs;
            if (c1 - s0 >= kSegmentNs)
                closeSegment();
        }
        if (!segment.empty())
            closeSegment();
        lastPass = secondsSince(p0);
        if (passes > 0)
            (traced ? tracedPass : plainPass).push_back(lastPass);
        if (passes == 0) {
            refPaper = paper.value();
            refAdv = adv.value();
            firstStats = stats;
        }
        r.check(paper.value() == refPaper && adv.value() == refAdv,
                "sweep pass " + std::to_string(passes) +
                    " digest differs from the first pass");
        ++passes;
    } while (static_cast<double>(wallNs() - start) * 1e-9 + lastPass <=
                 cfg.seconds ||
             (cfg.trace && passes < 3));
    unpin();

    const std::string refPath = cfg.refsDir + "/warm-replay.txt";
    if (cfg.writeRefs) {
        std::ofstream out(refPath);
        out << "# warm-replay reference: digest over every paper-model "
               "sweep cell, regenerated with\n"
               "#   perfbench --workload warm-replay --write-refs\n"
               "paper_digest "
            << hex64(refPaper) << "\n";
        r.check(static_cast<bool>(out), "cannot write references");
    } else {
        std::string want;
        for (auto &line : readRefLines(refPath))
            if (line.size() == 2 && line[0] == "paper_digest")
                want = line[1];
        r.check(want == hex64(refPaper),
                "paper sweep digest " + hex64(refPaper) +
                    " != reference " + want);
    }
    r.attempted += cells.size() * passes;

    if (!cfg.trace) {
        std::sort(cellSeconds.begin(), cellSeconds.end());
        const double rate = static_cast<double>(obs) / cellTotal;
        r.add("throughput_per_s", rate, "1/s");
        r.add("latency_p50_us", percentileSorted(cellSeconds, 50) * 1e6,
              "us");
        r.add("latency_p99_us", percentileSorted(cellSeconds, 99) * 1e6,
              "us");
        addSetupAndRss(r, setup.seconds());
        const double tail = highestSupportedPercentile(cellSeconds.size());
        std::printf("warm-replay: replay_intervals_per_s %.1f at the "
                    "reference speed (%.1f unscaled) over %llu "
                    "passes of %zu cells\n",
                    rate, static_cast<double>(obs) / cellRaw,
                    static_cast<unsigned long long>(passes), cells.size());
        std::printf("warm-replay: cell latency p50 %.1f us, p%g %.1f us "
                    "(%zu samples)\n",
                    percentileSorted(cellSeconds, 50) * 1e6, tail,
                    percentileSorted(cellSeconds, tail) * 1e6,
                    cellSeconds.size());
        return r;
    }

    cfg.spans = tracer.spans();
    std::map<std::string, double> layerSecs;
    std::map<std::string, std::uint64_t> layerObs;
    {
        const auto self = selfTimesNs(cfg.spans);
        std::map<std::string, std::string> layerOfSpan;
        std::map<std::string, std::uint64_t> obsOfSpan;
        for (const Cell &c : cells) {
            layerOfSpan[c.span] = c.layer;
            obsOfSpan[c.span] += c.obs;
        }
        for (std::size_t i = 0; i < cfg.spans.size(); ++i) {
            auto it = layerOfSpan.find(cfg.spans[i].name);
            if (it != layerOfSpan.end())
                layerSecs[it->second] +=
                    static_cast<double>(self[i]) * 1e-9;
        }
        // Every traced pass replays each cell once.
        const std::uint64_t tracedPasses = tracedPass.size();
        for (const Cell &c : cells)
            layerObs[c.layer] += c.obs * tracedPasses;
    }
    auto rate = [&](const std::string &layer) {
        return layerSecs[layer] > 0.0
                   ? static_cast<double>(layerObs[layer]) / layerSecs[layer]
                   : 0.0;
    };
    const double perPass = 1.0 / static_cast<double>(tracedPass.size());
    const auto totals = totalsByName(cfg.spans);
    auto spanSecs = [&](const std::string &name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfS;
    };

    r.add("trace.profile_load_s", median(loads), "s");
    r.add("trace.parse_mb_per_s",
          static_cast<double>(loaded.parseBytes) * 1e-6 / loaded.parseSecs,
          "MB/s");
    r.add("trace.cache_builds", static_cast<double>(cacheStats.builds),
          "count");
    r.add("trace.cache_hits", static_cast<double>(cacheStats.hits),
          "count");
    r.add("phase.classify_intervals_per_s", rate("classify"), "1/s");
    r.add("phase.evictions", static_cast<double>(firstStats.evictions),
          "count");
    r.add("phase.insertions", static_cast<double>(firstStats.insertions),
          "count");
    r.add("phase.threshold_halvings",
          static_cast<double>(firstStats.thresholdHalvings), "count");
    for (const std::string &name : kPredictors)
        r.add("pred." + name + "_obs_per_s", rate("pred." + name), "1/s");
    r.add("pred.length_obs_per_s", rate("pred.length"), "1/s");
    r.add("analysis.kmeans_s", spanSecs("analysis.kmeans") * perPass, "s");
    r.add("sample.estimate_s",
          spanSecs("sample.runSampledSimulation") * perPass, "s");
    r.add("fault.campaign_intervals_per_s", rate("fault"), "1/s");
    r.add("bench.trace_overhead",
          median(tracedPass) / median(plainPass), "ratio");
    return r;
}

} // namespace perfbench
