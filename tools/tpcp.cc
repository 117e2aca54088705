/**
 * @file
 * tpcp - command-line front end to the library.
 *
 * Subcommands:
 *   workloads                 list the built-in workloads
 *   machine                   print the Table-1 machine model
 *   profile  <workload>|all   simulate/load a profile, summarize
 *   classify <workload>       classify and print phase metrics
 *   predict  <workload>       next-phase / change prediction
 *   export   <workload>       per-interval CSV for plotting
 *   simstats <workload>       run the simulator, dump uarch stats
 *   sample   [workloads...]   phase-guided sampled simulation
 *   adapt    [workloads...]   phase-guided dynamic reconfiguration
 *   faults   [workloads...]   soft-error resilience measurement
 *   serve    [workloads...]   streaming multi-tenant phase service
 *   trace    <verb>           .tpcptrace ingest/export tooling
 *
 * Every command declares the flags it reads and prints them with
 * `tpcp <command> --help`; an undeclared flag, a missing value or a
 * malformed number is an error (exit 2), as in the bench harnesses
 * (common/cli.hh). Every command that takes workload names except
 * simstats also takes --trace=FILE[,FILE...] to analyze ingested
 * .tpcptrace files instead (analysis/workload_set.hh). sample,
 * adapt, faults and serve take any number of workloads; with none
 * named the first three run all 11 and serve replays synthetic
 * streams.
 *
 * Trace verbs (tpcp trace <verb>):
 *   export <workload>             export a profile as a .tpcptrace
 *                                 (with --trace=IN: re-export the
 *                                 ingested trace byte-identically)
 *   info <file>                   print the validated trace header
 *                                 and content hash
 *   gen                           generate an adversarial stressor
 *                                 stream ('tpcp trace gen
 *                                 --family=help' lists families)
 *   corpus <dir>                  write the deterministic corruption
 *                                 corpus + MANIFEST (the corpus
 *                                 ctests regenerate and replay it)
 *
 * 'profile all' builds/loads every workload profile (in parallel
 * with --jobs) and prints a one-line summary per workload; use it to
 * warm a shared $TPCP_PROFILE_DIR before a figure-suite run. A
 * workload whose profile cannot be produced (e.g. a corrupt cache
 * file under --require-cache) is skipped and reported in a
 * per-workload error summary at the end; the exit code is 3 when
 * some-but-not-all workloads failed.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "adapt/report.hh"
#include "analysis/experiment.hh"
#include "analysis/parallel_runner.hh"
#include "analysis/workload_set.hh"
#include "fault/resilience.hh"
#include "common/ascii_table.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/running_stats.hh"
#include "common/status.hh"
#include "pred/eval.hh"
#include "sample/report.hh"
#include "common/state_io.hh"
#include "serve/service.hh"
#include "trace/profile_cache.hh"
#include "trace/trace_file.hh"
#include "workload/adversarial.hh"
#include "uarch/machine_config.hh"
#include "uarch/simulator.hh"
#include "uarch/stats_report.hh"
#include "workload/workload.hh"

using namespace tpcp;

namespace
{

/** Flags shared by the commands that load profiles. */
const std::vector<cli::FlagSpec> kProfileFlags = {
    {"interval", "N", "instructions per interval (default 100000)"},
    {"core", "NAME", "timing core: ooo | simple (default ooo)"},
    {"require-cache", "",
     "fail instead of re-simulating when a cache file is "
     "missing, corrupt or mismatched"},
};

/** Flags shared by the commands that classify. */
const std::vector<cli::FlagSpec> kClassifierFlags = {
    {"threshold", "X", "similarity threshold (default 0.25)"},
    {"min", "N", "transition min count (default 8)"},
    {"entries", "N", "signature table entries (default 32)"},
    {"dims", "N", "accumulator counters (default 16)"},
    {"static-thresh", "", "disable adaptive thresholds"},
};

trace::ProfileOptions
profileOptions(const cli::Args &args)
{
    trace::ProfileOptions opts;
    opts.intervalLen = args.getU64("interval", 100'000);
    opts.coreName = args.get("core", "ooo");
    opts.requireCache = args.has("require-cache");
    return opts;
}

/** The one workload a single-workload command runs on: the named
 * one, or the ingested trace of --trace. */
trace::IntervalProfile
inputProfile(const cli::Args &args)
{
    const trace::ProfileOptions opts = profileOptions(args);
    return analysis::selectWorkloads(args, true).profile(0, opts);
}

phase::ClassifierConfig
classifierConfig(const cli::Args &args)
{
    phase::ClassifierConfig cfg =
        phase::ClassifierConfig::paperDefault();
    cfg.similarityThreshold = args.getDouble("threshold", 0.25);
    cfg.minCountThreshold = args.getUnsigned("min", 8);
    cfg.tableEntries = args.getUnsigned("entries", 32);
    cfg.numCounters = args.getUnsigned("dims", 16);
    if (args.has("static-thresh"))
        cfg.adaptiveThreshold = false;
    return cfg;
}

/** The exit code of a reporting command: writes --json (@p what),
 * then checks the run's @p value against @p bound. */
int
finish(const cli::Args &args, const std::string &json,
       const std::string &what, const cli::Bound &bound, double value)
{
    const bool ok = cli::writeJson(args, json, what) &&
                    cli::checkBound(args, bound, value);
    return ok ? 0 : 1;
}

int
cmdWorkloads(const cli::Args &)
{
    AsciiTable table({"name", "regions", "insts(M)", "description"});
    for (const auto &name : workload::workloadNames()) {
        workload::Workload w = workload::makeWorkload(name);
        table.row()
            .cell(name)
            .cell(static_cast<std::uint64_t>(
                w.program.regions.size()))
            .cell(static_cast<std::uint64_t>(w.totalInsts() /
                                             1'000'000))
            .cell(w.description);
    }
    table.print(std::cout);
    return 0;
}

int
cmdMachine(const cli::Args &)
{
    std::cout << uarch::MachineConfig::table1().toString();
    return 0;
}

int
cmdProfileAll(const cli::Args &args)
{
    const trace::ProfileOptions opts = profileOptions(args);
    const std::vector<std::string> &names =
        workload::workloadNames();
    std::cerr << "building/loading " << names.size()
              << " profiles ("
              << analysis::effectiveJobs(args.jobs, names.size())
              << " jobs) ...\n";
    // Graceful degradation: one bad workload (corrupt cache file
    // under --require-cache, unknown core, ...) is skipped and
    // reported at the end instead of aborting the whole batch. Each
    // task writes only its own error slot, so the vector needs no
    // lock.
    std::vector<std::string> errors(names.size());
    auto profiles = analysis::runIndexed(
        names.size(), args.jobs,
        [&](std::size_t i) -> std::optional<trace::IntervalProfile> {
            try {
                return trace::getProfileByName(names[i], opts);
            } catch (const Error &e) {
                errors[i] = e.what();
                return std::nullopt;
            }
        });
    AsciiTable table(
        {"workload", "intervals", "avg CPI", "CoV"});
    std::size_t failed = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (!profiles[i]) {
            ++failed;
            table.row().cell(names[i]).cell("-").cell("-").cell(
                "FAILED");
            continue;
        }
        RunningStats cpi;
        for (const auto &rec : profiles[i]->intervals())
            cpi.push(rec.cpi);
        table.row()
            .cell(names[i])
            .cell(static_cast<std::uint64_t>(
                profiles[i]->numIntervals()))
            .cell(cpi.mean(), 3)
            .percentCell(cpi.cov());
    }
    table.print(std::cout);
    trace::ProfileCacheStats stats = trace::profileCacheStats();
    std::cout << "cache: " << stats.hits << " hits, " << stats.builds
              << " builds, " << stats.rejects << " rejects\n";
    if (failed != 0) {
        std::cerr << "error: " << failed << " of " << names.size()
                  << " workloads failed:\n";
        for (std::size_t i = 0; i < names.size(); ++i)
            if (!errors[i].empty())
                std::cerr << "  " << names[i] << ": " << errors[i]
                          << "\n";
        // 3 = partial failure: some profiles were still produced.
        return failed == names.size() ? 1 : 3;
    }
    return 0;
}

int
cmdProfile(const cli::Args &args)
{
    if (args.positional == std::vector<std::string>{"all"}) {
        if (args.has("trace"))
            cli::usageError("--trace does not combine with 'all'");
        return cmdProfileAll(args);
    }
    const trace::IntervalProfile profile = inputProfile(args);
    RunningStats cpi;
    for (const auto &rec : profile.intervals())
        cpi.push(rec.cpi);
    AsciiTable table({"metric", "value"});
    table.row().cell("workload").cell(profile.workload());
    table.row().cell("core").cell(profile.coreName());
    table.row()
        .cell("interval length")
        .cell(static_cast<std::uint64_t>(profile.intervalLength()));
    table.row()
        .cell("intervals")
        .cell(static_cast<std::uint64_t>(profile.numIntervals()));
    table.row().cell("avg CPI").cell(cpi.mean(), 3);
    table.row().cell("min / max CPI").cell(
        std::to_string(cpi.min()).substr(0, 5) + " / " +
        std::to_string(cpi.max()).substr(0, 5));
    table.row().cell("whole-program CoV").percentCell(cpi.cov());
    table.print(std::cout);
    return 0;
}

char
phaseChar(PhaseId id)
{
    if (id == transitionPhaseId)
        return '.';
    static const char glyphs[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    return glyphs[(id - 1) % (sizeof(glyphs) - 1)];
}

int
cmdClassify(const cli::Args &args)
{
    const phase::ClassifierConfig cfg = classifierConfig(args);
    analysis::ClassificationResult res =
        analysis::classifyProfile(inputProfile(args), cfg);

    if (args.has("timeline")) {
        for (std::size_t i = 0; i < res.trace.size(); ++i) {
            std::cout << phaseChar(res.trace.phases[i]);
            if ((i + 1) % 80 == 0)
                std::cout << '\n';
        }
        std::cout << "\n\n";
    }

    AsciiTable table({"metric", "value"});
    table.row().cell("stable phases").cell(
        static_cast<std::uint64_t>(res.numPhases));
    table.row().cell("per-phase CPI CoV").percentCell(res.covCpi);
    table.row()
        .cell("whole-program CoV")
        .percentCell(res.wholeProgramCov);
    table.row()
        .cell("transition time")
        .percentCell(res.transitionFraction);
    table.row()
        .cell("avg stable run")
        .cell(res.runLengths.stableAvg, 1);
    table.row()
        .cell("avg transition run")
        .cell(res.runLengths.transitionAvg, 1);
    table.row()
        .cell("threshold halvings")
        .cell(res.classifierStats.thresholdHalvings);
    table.print(std::cout);
    return 0;
}

int
cmdPredict(const cli::Args &args)
{
    const phase::ClassifierConfig cfg = classifierConfig(args);
    analysis::ClassificationResult res =
        analysis::classifyProfile(inputProfile(args), cfg);

    std::string pname = args.get("predictor", "rle2");
    std::optional<pred::PredictorSpec> spec =
        pred::predictorSpecByName(pname);
    pred::NextPhaseStats next =
        pred::evalNextPhase(res.trace.phases, spec);

    AsciiTable table({"metric", "value"});
    table.row().cell("predictor").cell(
        spec ? spec->displayName() : "Last Value");
    table.row().cell("next-phase accuracy").percentCell(
        next.accuracy());
    table.row()
        .cell("confident accuracy")
        .percentCell(next.confidentAccuracy());
    table.row()
        .cell("confident coverage")
        .percentCell(next.confidentCoverage());
    table.row().cell("interval change rate").percentCell(
        next.total ? static_cast<double>(next.phaseChanges) /
                         static_cast<double>(next.total)
                   : 0.0);
    if (spec) {
        pred::ChangeOutcomeStats ch =
            pred::evalChangeOutcome(res.trace.phases, *spec);
        table.row()
            .cell("phase changes predicted")
            .percentCell(ch.correctRate());
        table.row()
            .cell("change tag-miss rate")
            .percentCell(ch.changes
                             ? static_cast<double>(ch.tagMiss) /
                                   static_cast<double>(ch.changes)
                             : 0.0);
    }
    pred::RunLengthStats rl = pred::evalRunLength(res.trace.phases);
    table.row()
        .cell("length-class mispredict")
        .percentCell(rl.mispredictRate());
    table.print(std::cout);
    return 0;
}

int
cmdExport(const cli::Args &args)
{
    const phase::ClassifierConfig cfg = classifierConfig(args);
    analysis::ClassificationResult res =
        analysis::classifyProfile(inputProfile(args), cfg);

    std::ofstream file;
    std::ostream *out = &std::cout;
    std::string path = args.get("out", "");
    if (!path.empty()) {
        file.open(path);
        if (!file) {
            std::cerr << "error: cannot open " << path << "\n";
            return 1;
        }
        out = &file;
    }
    *out << "interval,cpi,phase,is_transition\n";
    for (std::size_t i = 0; i < res.trace.size(); ++i) {
        *out << i << ',' << res.trace.cpis[i] << ','
             << res.trace.phases[i] << ','
             << (res.trace.phases[i] == transitionPhaseId ? 1 : 0)
             << '\n';
    }
    if (!path.empty())
        std::cout << "wrote " << res.trace.size()
                  << " intervals to " << path << "\n";
    return 0;
}

int
cmdSimStats(const cli::Args &args)
{
    const std::string name =
        analysis::selectWorkloads(args, true).names[0];
    const std::string core_name = args.get("core", "ooo");
    const InstCount max_insts = args.getU64("max-insts", 0);
    const uarch::MachineConfig machine = uarch::MachineConfig::table1();
    std::unique_ptr<uarch::TimingCore> core;
    try {
        core = uarch::makeCore(core_name, machine);
    } catch (const Error &e) {
        cli::usageError(e.what());
    }
    workload::Workload w = workload::makeWorkload(name);
    auto schedule = w.makeSchedule();
    uarch::Simulator sim(w.program, *schedule, *core, w.simSeed());
    std::cerr << "simulating " << name << " on the '" << core_name
              << "' core...\n";
    sim.run(max_insts);
    std::cout << uarch::formatCoreStats(*core);
    return 0;
}

int
cmdSample(const cli::Args &args)
{
    const analysis::WorkloadSet set = analysis::selectWorkloads(args);
    auto budget =
        static_cast<std::size_t>(args.getU64("budget", 16));
    if (budget == 0)
        cli::usageError("--budget must be positive");
    std::string selector = args.get("selector", "stratified");
    sample::PhaseSource source = sample::phaseSourceByName(
        args.get("phase-source", "online"));
    const trace::ProfileOptions opts = profileOptions(args);

    std::cerr << "[sample] " << set.size() << " workloads, "
              << "selector=" << selector << ", budget=" << budget
              << " (" << analysis::effectiveJobs(args.jobs, set.size())
              << " jobs)\n";
    std::vector<sample::SampleReport> reports =
        analysis::runIndexed(
            set.size(), args.jobs, [&](std::size_t i) {
                return sample::runSampledSimulation(
                    set.profile(i, opts), selector, source, budget);
            });

    AsciiTable table({"workload", "phases", "sampled", "true CPI",
                      "est CPI", "error", "pred err", "speedup"});
    double worst = 0.0;
    for (const sample::SampleReport &r : reports) {
        table.row()
            .cell(r.workload)
            .cell(std::to_string(r.phasesCovered) + "/" +
                  std::to_string(r.phasesTotal))
            .cell(std::to_string(r.sampled) + "/" +
                  std::to_string(r.totalIntervals))
            .cell(r.trueCpi, 3)
            .cell(r.estimatedCpi, 3)
            .percentCell(r.relError)
            .percentCell(r.predictedRelError)
            .cell(r.speedupEquivalent(), 1);
        worst = std::max(worst, r.relError);
    }
    table.print(std::cout);

    return finish(args, sample::toJson(reports),
                  std::to_string(reports.size()) + " reports",
                  {"max-error", "worst CPI error", true}, worst);
}

int
cmdAdapt(const cli::Args &args)
{
    const analysis::WorkloadSet set = analysis::selectWorkloads(args);
    adapt::PolicyPreset preset =
        adapt::policyPresetByName(args.get("policy", "greedy"));
    adapt::ConfigLattice lattice = adapt::ConfigLattice::byName(
        args.get("lattice", "standard"));
    trace::ProfileOptions opts = profileOptions(args);
    if (!args.has("core"))
        opts.coreName = "simple";

    std::cerr << "[adapt] " << set.size() << " workloads, "
              << "policy=" << preset.name
              << ", lattice=" << lattice.size() << " configs ("
              << analysis::effectiveJobs(args.jobs, set.size())
              << " jobs)\n";
    std::vector<adapt::AdaptReport> reports = analysis::runIndexed(
        set.size(), args.jobs, [&](std::size_t i) {
            // Traces replay in recorded-CPI mode (energy-only
            // lattice; see adapt/report.hh).
            if (!set.traced.empty())
                return adapt::runTraceAdaptation(set.traced[i], preset,
                                                 lattice);
            return adapt::runAdaptation(set.names[i], preset, lattice,
                                        opts);
        });

    AsciiTable table({"workload", "phases", "switches", "penalty(K)",
                      "policy", "static", "oracle", "of oracle",
                      "slowdown"});
    double worst_fraction = 1.0;
    for (const adapt::AdaptReport &r : reports) {
        table.row()
            .cell(r.workload)
            .cell(static_cast<std::uint64_t>(r.numPhases))
            .cell(r.switches.total())
            .cell(static_cast<double>(r.switches.penaltyCycles) /
                      1000.0,
                  1)
            .percentCell(r.edpSavings(r.policyTotals))
            .percentCell(r.edpSavings(r.staticBest))
            .percentCell(r.edpSavings(r.oracle))
            .percentCell(r.oracleFraction())
            .percentCell(r.slowdown());
        worst_fraction = std::min(worst_fraction,
                                  r.oracleFraction());
    }
    table.print(std::cout);

    return finish(args, adapt::toJson(reports),
                  std::to_string(reports.size()) + " reports",
                  {"min-oracle", "worst oracle fraction"},
                  worst_fraction);
}

int
cmdFaults(const cli::Args &args)
{
    const analysis::WorkloadSet set = analysis::selectWorkloads(args);

    fault::ResilienceOptions ropts;
    ropts.injector.target =
        fault::targetByName(args.get("target", "all"));
    {
        // Which change predictor rides under fault; "lastvalue"
        // (no table at all) is not meaningful here.
        std::string pname = args.get("predictor", "rle2");
        auto spec = pred::predictorSpecByName(pname);
        if (!spec)
            cli::usageError("faults needs a table-backed predictor, "
                            "not '" + pname + "'");
        ropts.changePredictor = *spec;
    }
    ropts.injector.ratePerInterval = args.getDouble("rate", 0.01);
    ropts.injector.mitigated = args.has("mitigated");
    ropts.injector.seed = args.getU64("seed", 0x5eedfa17);
    ropts.scrubEvery = args.getUnsigned("scrub-every", 1);
    ropts.withAdapt = args.has("adapt");
    ropts.adaptLattice = args.get("lattice", "small");
    ropts.checkpointPath = args.get("checkpoint", "");
    ropts.checkpointAt = args.getU64("checkpoint-at", 0);
    ropts.resume = args.has("resume");
    if ((ropts.checkpointAt != 0 || ropts.resume) &&
        (ropts.checkpointPath.empty() || set.size() != 1))
        cli::usageError("--checkpoint-at/--resume need --checkpoint "
                        "PATH and exactly one workload");

    const trace::ProfileOptions opts = profileOptions(args);

    std::cerr << "[faults] " << set.size() << " workloads, target="
              << fault::targetName(ropts.injector.target)
              << ", rate=" << ropts.injector.ratePerInterval
              << (ropts.injector.mitigated ? ", mitigated"
                                           : ", unmitigated")
              << " ("
              << analysis::effectiveJobs(args.jobs, set.size())
              << " jobs)\n";
    std::vector<fault::ResilienceReport> reports =
        analysis::runIndexed(
            set.size(), args.jobs, [&](std::size_t i) {
                return fault::runResilience(set.profile(i, opts),
                                            ropts);
            });

    AsciiTable table({"workload", "faults", "agreement",
                      "next-phase", "change", "length",
                      "ecc", "repairs", "quar"});
    double worst = 1.0;
    for (const fault::ResilienceReport &r : reports) {
        auto pair = [](double base, double faulty) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.1f>%.1f",
                          base * 100.0, faulty * 100.0);
            return std::string(buf);
        };
        table.row()
            .cell(r.workload)
            .cell(r.faults.total())
            .percentCell(r.agreement())
            .cell(pair(r.nextPhaseAccBase, r.nextPhaseAccFaulty))
            .cell(pair(r.changeAccBase, r.changeAccFaulty))
            .cell(pair(r.lengthAccBase, r.lengthAccFaulty))
            .cell(r.eccCorrections)
            .cell(r.repairs)
            .cell(r.quarantines);
        worst = std::min(worst, r.agreement());
    }
    table.print(std::cout);

    return finish(args, fault::toJson(reports),
                  std::to_string(reports.size()) + " reports",
                  {"min-agreement", "worst phase-ID agreement"}, worst);
}

/** Writes one tenant_<id>.phases file per tenant in @p ids into
 * @p dir, one decimal phase ID per line: the byte-level artifact CI
 * diffs between the service and the batch path. */
template <typename StreamOf>
void
writePhaseFiles(const std::string &dir,
                const std::vector<std::uint64_t> &ids,
                StreamOf stream_of)
{
    std::filesystem::create_directories(dir);
    for (std::uint64_t t : ids) {
        const std::string path =
            dir + "/tenant_" + std::to_string(t) + ".phases";
        std::ofstream out(path);
        if (!out)
            tpcp_raise("cannot write phase stream ", path);
        for (PhaseId p : stream_of(t))
            out << p << '\n';
    }
}

/** Upper bound on --ring-bytes (threads: cli::kMaxThreads). */
constexpr std::uint64_t kMaxRingBytes = std::uint64_t(1) << 30;

int
cmdServe(const cli::Args &args)
{
    // Named workloads and --trace files become the replayed
    // streams; with neither, synthetic streams.
    const bool synthetic =
        args.positional.empty() && !args.has("trace");
    const analysis::WorkloadSet set =
        synthetic ? analysis::WorkloadSet{}
                  : analysis::selectWorkloads(args);
    const unsigned tenants = args.getUnsigned("tenants", 8);
    // Each producer is a thread and a ring, and each job a worker
    // thread (--jobs is bounded at parse time): bound them before
    // anything is started.
    const unsigned producers =
        args.getUnsigned("producers", 1, cli::kMaxThreads);
    if (tenants == 0 || producers == 0)
        cli::usageError("--tenants and --producers must be >= 1");
    const std::uint64_t packets = args.getU64("packets", 2000);
    phase::ClassifierConfig ccfg = classifierConfig(args);
    pred::PhaseTrackerConfig tcfg;
    tcfg.classifier = ccfg;

    // Shared streams: tenant t replays stream t % S, so a tenant's
    // input depends only on its id — never on the producer layout.
    std::vector<serve::EncodedStream> streams;
    if (synthetic) {
        const unsigned n = args.getUnsigned("streams", 4);
        if (n == 0)
            cli::usageError("--streams must be >= 1");
        const std::uint64_t len = packets == 0 ? 2000 : packets;
        for (unsigned k = 0; k < n; ++k)
            streams.push_back(serve::encodeSyntheticStream(
                k, len, ccfg.numCounters));
    } else {
        const trace::ProfileOptions popts = profileOptions(args);
        for (std::size_t i = 0; i < set.size(); ++i)
            streams.push_back(serve::encodeProfileStream(
                set.profile(i, popts), ccfg.numCounters, packets));
    }
    auto streamOf =
        [&](std::uint64_t t) -> const serve::EncodedStream & {
        return streams[t % streams.size()];
    };

    const std::string phase_out = args.get("phase-out", "");
    if (args.has("batch")) {
        // Reference mode: the offline batch path, one fresh tracker
        // per tenant. CI diffs these files against the service's.
        if (phase_out.empty())
            cli::usageError("--batch needs --phase-out DIR");
        std::vector<std::uint64_t> ids(tenants);
        for (std::uint64_t t = 0; t < tenants; ++t)
            ids[t] = t;
        writePhaseFiles(phase_out, ids, [&](std::uint64_t t) {
            return serve::batchPhaseStream(streamOf(t), tcfg);
        });
        std::cout << "wrote " << tenants
                  << " batch phase streams to " << phase_out
                  << "\n";
        return 0;
    }

    serve::ServeOptions sopts;
    sopts.registry.tracker = tcfg;
    sopts.producers = producers;
    sopts.jobs = args.jobs;
    sopts.ringBytes = args.getU64("ring-bytes", 1u << 20, kMaxRingBytes);
    sopts.fairness.ratePerCycle = args.getU64("rate-limit", 0);
    sopts.fairness.burst = args.getU64("burst", 0);
    sopts.fairness.drrQuantum = args.getU64("drr-quantum", 16);
    sopts.fairness.maxBacklog = args.getU64("max-backlog", 0);
    sopts.fairness.cycleBudget = args.getU64("cycle-budget", 0);
    sopts.registry.quarantine.offenseThreshold =
        args.getU64("quarantine-threshold", 0);
    sopts.registry.quarantine.offenseWindow =
        args.getU64("quarantine-window", 1024);
    sopts.registry.quarantine.backoffBase =
        args.getU64("quarantine-backoff", 256);
    sopts.registry.quarantine.backoffCap =
        args.getU64("quarantine-backoff-cap", 1u << 20);
    // Tenant t is fed by producer t % producers; a tenant never
    // spans rings, so its packet order is total.
    const unsigned per_part = (tenants + producers - 1) / producers;
    const unsigned resident = args.getUnsigned("resident", 0);
    sopts.registry.maxResident =
        resident == 0 ? std::max(1u, per_part) : resident;
    sopts.registry.evictAfter = args.getU64("evict-after", 0);
    sopts.registry.recordPhases = !phase_out.empty();

    serve::ServiceLoop loop(sopts);
    if (args.has("migrate-in")) {
        try {
            const std::size_t adopted =
                loop.migrateIn(args.get("migrate-in", ""));
            std::cout << "migrated " << adopted << " tenants in "
                      << "from " << args.get("migrate-in", "")
                      << "\n";
        } catch (const Error &e) {
            std::cerr << "error: migrate-in rejected bundle: "
                      << e.what() << "\n";
            return 1;
        }
    }
    std::vector<serve::ProducerTask> tasks(producers);
    for (unsigned p = 0; p < producers; ++p) {
        tasks[p].ring = &loop.ring(p);
        tasks[p].policy = args.has("drop")
                              ? serve::BackpressurePolicy::Drop
                              : serve::BackpressurePolicy::Park;
        tasks[p].parkRetryLimit = args.getU64("park-retries", 0);
        tasks[p].startStep = args.getU64("packet-base", 0);
    }
    for (std::uint64_t t = 0; t < tenants; ++t) {
        serve::ProducerTask &task = tasks[t % producers];
        task.tenants.push_back(t);
        task.streams.push_back(&streamOf(t));
    }

    std::vector<serve::ProducerCounters> pcs(producers);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p)
        threads.emplace_back([&, p] {
            pcs[p] = serve::runProducer(tasks[p]);
            loop.producerDone(p);
        });
    loop.run();
    for (std::thread &th : threads)
        th.join();
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    // Attribute producer-side backpressure (parks, drops) to the
    // tenants that suffered it, now that the threads joined.
    for (unsigned p = 0; p < producers; ++p)
        for (std::size_t i = 0; i < tasks[p].tenants.size(); ++i)
            loop.noteProducerStats(p, tasks[p].tenants[i],
                                   pcs[p].tenantParks[i],
                                   pcs[p].tenantDropped[i]);

    serve::ServeReport rep;
    rep.tenants = tenants;
    rep.producers = producers;
    rep.jobs = loop.numWorkers();
    for (const serve::ProducerCounters &c : pcs) {
        rep.packetsProduced += c.pushed;
        rep.packetsDropped += c.dropped;
        rep.parkEvents += c.parkEvents;
    }
    rep.service = loop.counters();
    rep.elapsedSec = elapsed;
    rep.packetsPerSec =
        elapsed > 0.0
            ? static_cast<double>(rep.service.packets) / elapsed
            : 0.0;
    if (!phase_out.empty() || tenants <= 64)
        for (std::uint64_t id : loop.allTenantIds())
            rep.perTenant.push_back({id, loop.tenantCounters(id)});

    AsciiTable table({"metric", "value"});
    auto row = [&](const char *k, std::uint64_t v) {
        table.row().cell(k).cell(v);
    };
    row("tenants", rep.service.tenants);
    row("producers", producers);
    row("workers", rep.jobs);
    row("packets produced", rep.packetsProduced);
    row("packets delivered", rep.service.packets);
    row("packets dropped", rep.packetsDropped);
    row("park events", rep.parkEvents);
    row("malformed", rep.service.malformedPackets);
    row("rejected", rep.service.rejectedPackets);
    row("shed", rep.service.shedPackets);
    row("evictions", rep.service.evictions);
    row("resumes", rep.service.resumes);
    row("phase switches", rep.service.phaseSwitches);
    row("lost upstream", rep.service.lostUpstream);
    row("quarantines", rep.service.quarantines);
    row("quarantine drops", rep.service.quarantineDrops);
    row("readmissions", rep.service.readmissions);
    row("resume failures", rep.service.resumeFailures);
    row("drain cycles", rep.service.drainCycles);
    table.row().cell("packets/s").cell(rep.packetsPerSec, 0);
    table.print(std::cout);

    // Every packet a producer pushed must be accounted for at the
    // consumer: delivered, malformed, visibly rejected, shed by the
    // flow scheduler, or dropped in quarantine. Anything else is
    // silent loss, which is a bug, not a statistic.
    if (rep.service.accounted() != rep.packetsProduced) {
        std::cerr << "error: silent packet loss: "
                  << rep.packetsProduced << " pushed but only "
                  << rep.service.accounted() << " accounted for\n";
        return 1;
    }

    if (args.has("migrate-out")) {
        try {
            loop.migrateOut(args.get("migrate-out", ""));
            std::cout << "migrated " << rep.service.tenants
                      << " tenants out to "
                      << args.get("migrate-out", "") << "\n";
        } catch (const Error &e) {
            std::cerr << "error: migrate-out failed: " << e.what()
                      << "\n";
            return 1;
        }
    }

    if (!phase_out.empty()) {
        writePhaseFiles(phase_out, loop.allTenantIds(),
                        [&](std::uint64_t t) -> const auto & {
                            return loop.phaseStream(t);
                        });
        std::cout << "wrote " << loop.allTenantIds().size()
                  << " phase streams to " << phase_out << "\n";
    }
    return finish(args, serve::toJson(rep), "report",
                  {"min-rate", "ingest rate", false, 1.0, " packets/s",
                   ""},
                  rep.packetsPerSec);
}

/** Writes raw bytes to @p path (corpus files are plain writes; the
 * atomic writer is for files readers may race on). */
bool
writeBytes(const std::string &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out.flush());
}

int
cmdTraceExport(const cli::Args &args)
{
    const std::string out = args.get("out", "");
    if (out.empty())
        cli::usageError("trace export needs --out=PATH");
    // A named workload, or an ingested trace whose source note is
    // kept, so that a re-export reproduces the trace's bytes.
    const analysis::WorkloadSet set =
        analysis::selectWorkloads(args, true);
    const std::string &name = set.names[0];
    const trace::IntervalProfile profile =
        set.profile(0, profileOptions(args));
    const std::string source = args.get(
        "source",
        set.sources.empty() ? "tpcp trace export " + name : set.sources[0]);
    trace::writeTrace(out, profile, source);
    std::cout << "exported " << profile.numIntervals()
              << " intervals of " << name << " to " << out << "\n";
    return 0;
}

int
cmdTraceInfo(const cli::Args &args)
{
    if (args.positional.empty())
        cli::usageError("trace info needs a file path");
    const std::string &path = args.positional[0];
    const std::vector<std::uint8_t> bytes = readFile(path);
    trace::TraceData data = trace::parseTrace(bytes, path);
    std::string dims;
    for (unsigned d : data.profile.dims()) {
        if (!dims.empty())
            dims += ',';
        dims += std::to_string(d);
    }
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(bytes.data(), bytes.size())));
    AsciiTable table({"field", "value"});
    table.row().cell("workload").cell(data.profile.workload());
    table.row().cell("core").cell(data.profile.coreName());
    table.row().cell("interval length")
        .cell(static_cast<std::uint64_t>(
            data.profile.intervalLength()));
    table.row().cell("intervals").cell(
        static_cast<std::uint64_t>(data.profile.numIntervals()));
    table.row().cell("dims").cell(dims);
    table.row().cell("machine hash").cell(
        data.profile.machineHash());
    table.row().cell("source").cell(
        data.source.empty() ? "-" : data.source);
    table.row().cell("content hash").cell(std::string(hash));
    table.print(std::cout);
    return 0;
}

int
cmdTraceGen(const cli::Args &args)
{
    workload::AdversarialSpec spec;
    spec.family = args.get("family", "phase-alias");
    if (spec.family == "help") {
        for (const std::string &f :
             workload::adversarialFamilies())
            std::cout << f << "\n";
        return 0;
    }
    spec.seed = args.getU64("seed", 1);
    spec.intervals =
        static_cast<std::size_t>(args.getU64("intervals", 600));
    spec.intervalLen = args.getU64("interval", 100'000);
    std::string out = args.get("out", "");
    if (out.empty())
        cli::usageError("trace gen needs --out=PATH");
    workload::AdversarialTrace adv =
        workload::makeAdversarial(spec);
    std::string source = "adversarial family=" + spec.family +
                         " seed=" + std::to_string(spec.seed);
    trace::writeTrace(out, adv.profile, source);
    std::cout << "generated " << adv.profile.numIntervals()
              << " intervals (" << adv.numBehaviors
              << " behaviors) of " << spec.family << " to " << out
              << "\n";
    return 0;
}

/**
 * Writes the deterministic corruption corpus: a small valid seed
 * trace plus one file per corruption class, with a MANIFEST mapping
 * each file to the loader outcome it must produce. The CI
 * trace-hardening job and tests/trace replay it; both also regenerate
 * it and diff, so the checked-in corpus can never drift from the
 * writer.
 */
int
cmdTraceCorpus(const cli::Args &args)
{
    if (args.positional.empty())
        cli::usageError("trace corpus needs an output dir");
    const std::string dir = args.positional[0];
    std::filesystem::create_directories(dir);

    workload::AdversarialSpec spec;
    spec.family = "phase-alias";
    spec.seed = 7;
    spec.intervals = 40;
    const std::vector<std::uint8_t> good = trace::encodeTrace(
        workload::makeAdversarial(spec).profile,
        "corruption-corpus seed");

    // Offsets of the pieces we corrupt (format: trace_file.hh).
    std::uint32_t header_len;
    std::memcpy(&header_len, good.data() + 8, 4);
    const std::size_t header_start = 12;
    const std::size_t crc_at = header_start + header_len;
    const std::size_t records_at = crc_at + 4;

    std::vector<
        std::pair<std::string, std::vector<std::uint8_t>>>
        files;
    files.emplace_back("seed.tpcptrace", good);
    files.emplace_back("empty.tpcptrace",
                       std::vector<std::uint8_t>{});

    auto variant = [&](const std::string &name, auto &&mutate) {
        std::vector<std::uint8_t> bytes = good;
        mutate(bytes);
        files.emplace_back(name, std::move(bytes));
    };
    variant("bad-magic.tpcptrace",
            [](auto &b) { b[0] ^= 0xff; });
    variant("bad-version.tpcptrace",
            [](auto &b) { b[4] = 0x7f; });
    variant("truncated-header.tpcptrace", [&](auto &b) {
        b.resize(header_start + header_len / 2);
    });
    variant("truncated-record.tpcptrace",
            [](auto &b) { b.resize(b.size() - 7); });
    variant("trailing-garbage.tpcptrace", [](auto &b) {
        b.insert(b.end(), {0xde, 0xad, 0xbe, 0xef, 0x00});
    });
    variant("flipped-header.tpcptrace", [&](auto &b) {
        b[header_start + 2] ^= 0x10; // CRC must catch it
    });
    variant("forged-count.tpcptrace", [&](auto &b) {
        // Claim 1000 extra records *with a valid header CRC*: only
        // the count-vs-remaining-bytes bound can reject this one.
        std::uint64_t count;
        std::memcpy(&count, b.data() + crc_at - 8, 8);
        count += 1000;
        std::memcpy(b.data() + crc_at - 8, &count, 8);
        std::uint32_t crc =
            crc32(b.data() + header_start, header_len);
        std::memcpy(b.data() + crc_at, &crc, 4);
    });
    variant("bad-record-len.tpcptrace", [&](auto &b) {
        std::uint32_t len;
        std::memcpy(&len, b.data() + records_at, 4);
        len += 4;
        std::memcpy(b.data() + records_at, &len, 4);
    });
    variant("flipped-payload.tpcptrace", [&](auto &b) {
        b[records_at + 4 + 10] ^= 0x01; // record CRC must catch it
    });
    variant("flipped-crc.tpcptrace", [&](auto &b) {
        b[b.size() - 1] ^= 0x80; // last record's CRC field
    });

    std::string manifest =
        "# file -> required loader outcome (ok | fail)\n";
    for (const auto &[name, bytes] : files) {
        if (!writeBytes(dir + "/" + name, bytes)) {
            std::cerr << "error: cannot write " << dir << "/"
                      << name << "\n";
            return 1;
        }
        manifest += name;
        manifest += name == "seed.tpcptrace" ? " ok\n" : " fail\n";
    }
    std::ofstream mf(dir + "/MANIFEST");
    mf << manifest;
    if (!mf.flush()) {
        std::cerr << "error: cannot write " << dir
                  << "/MANIFEST\n";
        return 1;
    }
    std::cout << "wrote " << files.size()
              << " corpus files + MANIFEST to " << dir << "\n";
    return 0;
}

/** A tpcp command: its name (one or two words), its positional
 * arguments, and the flags it reads. */
struct Command
{
    std::string name;
    std::string operands;
    std::string summary;
    std::size_t maxPositional;
    std::vector<cli::FlagSpec> flags;
    int (*run)(const cli::Args &);
};

/** @p groups concatenated. */
std::vector<cli::FlagSpec>
flags(std::initializer_list<std::vector<cli::FlagSpec>> groups)
{
    std::vector<cli::FlagSpec> out;
    for (const auto &g : groups)
        out.insert(out.end(), g.begin(), g.end());
    return out;
}

const std::vector<Command> &
commands()
{
    const cli::FlagSpec trace = cli::traceFlag(), jobs = cli::jobsFlag();
    const cli::FlagSpec predictor = {
        "predictor", "P",
        "lastvalue | markov1 | markov2 | rle1 | rle2 | top4markov1 | "
        "last4markov1 | tage | perceptron (default rle2)"};
    const cli::FlagSpec lattice = {"lattice", "L",
                                   "config lattice: standard | small"};
    const cli::FlagSpec out = {"out", "PATH", "output file"};
    const std::size_t many = std::numeric_limits<std::size_t>::max();
    static const std::vector<Command> table = {
        {"workloads", "", "list the built-in workloads", 0, {},
         cmdWorkloads},
        {"machine", "", "print the Table-1 machine model", 0, {},
         cmdMachine},
        {"profile", "<workload>|all",
         "simulate/load a profile and summarize it", 1,
         flags({kProfileFlags, {trace, jobs}}), cmdProfile},
        {"classify", "<workload>", "classify and print phase metrics",
         1,
         flags({kProfileFlags, kClassifierFlags, {trace},
                {{"timeline", "", "print the phase timeline"}}}),
         cmdClassify},
        {"predict", "<workload>", "next-phase and change prediction",
         1, flags({kProfileFlags, kClassifierFlags, {trace, predictor}}),
         cmdPredict},
        {"export", "<workload>", "per-interval CSV for plotting", 1,
         flags({kProfileFlags, kClassifierFlags,
                {trace, {"out", "PATH", "output CSV (default stdout)"}}}),
         cmdExport},
        {"simstats", "<workload>", "run the simulator, dump uarch stats",
         1,
         {kProfileFlags[1],
          {"max-insts", "N", "stop after N instructions (default: "
                             "full run)"}},
         cmdSimStats},
        {"sample", "[workload...]", "phase-guided sampled simulation",
         many,
         flags({kProfileFlags,
                {trace, jobs,
                 {"budget", "N",
                  "detailed intervals per workload (default 16)"},
                 {"selector", "S",
                  "first | centroid | stratified | uniform | random "
                  "(default stratified)"},
                 {"phase-source", "P", "online | offline (default "
                                       "online)"},
                 cli::jsonFlag("SampleReports", ""),
                 {"max-error", "X",
                  "exit 1 if any CPI estimate is off by more than "
                  "fraction X (CI tripwire)"}}}),
         cmdSample},
        {"adapt", "[workload...]",
         "phase-guided dynamic reconfiguration", many,
         flags({kProfileFlags,
                {trace, jobs,
                 {"policy", "P",
                  "greedy | greedy-nopred | greedy-tage | "
                  "greedy-perceptron (default greedy)"},
                 lattice, cli::jsonFlag("AdaptReports", ""),
                 {"min-oracle", "X",
                  "exit 1 if any workload's policy reaches less than "
                  "fraction X of the oracle's EDP savings (CI "
                  "tripwire)"}}}),
         cmdAdapt},
        {"faults", "[workload...]", "soft-error resilience measurement",
         many,
         flags({kProfileFlags,
                {trace, jobs,
                 {"target", "T",
                  "accum | signature | metadata | change-table | "
                  "length-table | input | all (default all)"},
                 predictor,
                 {"rate", "X",
                  "per-interval fault probability (default 0.01)"},
                 {"mitigated", "",
                  "enable the hardening model (parity, scrubbing, "
                  "ECC, CPI plausibility gate)"},
                 {"seed", "N", "fault campaign seed"},
                 {"scrub-every", "N",
                  "mitigated scrub period in intervals (default 1)"},
                 {"adapt", "",
                  "also measure the adapt-layer oracle-fraction delta"},
                 lattice, cli::jsonFlag("ResilienceReports", ""),
                 {"min-agreement", "X",
                  "exit 1 if any workload's phase-ID agreement falls "
                  "below fraction X (CI tripwire)"},
                 {"checkpoint", "PATH",
                  "checkpoint file (single workload only)"},
                 {"checkpoint-at", "K",
                  "save the checkpoint and stop after K intervals"},
                 {"resume", "", "resume the faulty run from "
                                "--checkpoint"}}}),
         cmdFaults},
        {"serve", "[workload...]",
         "streaming multi-tenant phase service", many,
         flags({kProfileFlags, kClassifierFlags,
                {trace, jobs,
                 {"tenants", "N", "concurrent tenants (default 8)"},
                 {"producers", "P",
                  "producer rings/threads (default 1, at most 256)"},
                 {"packets", "N",
                  "packets per tenant stream (default 2000; 0 = full "
                  "profile)"},
                 {"streams", "K", "distinct synthetic streams "
                                  "(default 4)"},
                 {"resident", "N",
                  "resident tenants per partition (0 = all; default "
                  "0)"},
                 {"evict-after", "N",
                  "evict a tenant idle for N delivered packets "
                  "(default 0 = never)"},
                 {"ring-bytes", "B",
                  "per-producer ring capacity (default 1 MiB, at most "
                  "1 GiB)"},
                 {"drop", "", "drop packets on a full ring instead of "
                              "parking"},
                 {"park-retries", "N",
                  "park retries per push before a counted drop "
                  "(default 0 = park forever)"},
                 {"rate-limit", "R",
                  "per-tenant token refill, packets per drain cycle "
                  "(default 0 = unlimited)"},
                 {"burst", "B", "token-bucket capacity (default 0 = "
                                "rate-limit)"},
                 {"drr-quantum", "Q",
                  "deficit-round-robin quantum, packets (default 16)"},
                 {"max-backlog", "N",
                  "staged frames per tenant before arrivals are shed "
                  "(default 0 = unbounded)"},
                 {"cycle-budget", "N",
                  "frames per partition per drain cycle (default 0 = "
                  "drain batch)"},
                 {"quarantine-threshold", "N",
                  "offenses within one window that quarantine a "
                  "tenant (default 0 = off)"},
                 {"quarantine-window", "W",
                  "offense window, packets seen (default 1024)"},
                 {"quarantine-backoff", "B",
                  "first quarantine length, packets seen; doubles per "
                  "re-quarantine (default 256)"},
                 {"quarantine-backoff-cap", "C",
                  "backoff ceiling (default 1 Mi)"},
                 {"migrate-out", "DIR",
                  "after the run, evict every tenant into a migration "
                  "bundle"},
                 {"migrate-in", "DIR",
                  "before the run, validate a bundle and adopt its "
                  "tenants"},
                 {"packet-base", "K",
                  "start replaying each stream at interval K"},
                 {"phase-out", "DIR",
                  "write one tenant_<id>.phases file per tenant"},
                 {"batch", "",
                  "with --phase-out: write the batch-reference streams "
                  "instead of serving"},
                 cli::jsonFlag("the ServeReport", ""),
                 {"min-rate", "R",
                  "exit 1 if delivered packets/s fall below R (CI "
                  "tripwire)"}}}),
         cmdServe},
        {"trace export", "<workload>",
         "export a profile (or re-export --trace) as a .tpcptrace", 1,
         flags({kProfileFlags,
                {trace, out,
                 {"source", "S", "provenance note in the header"}}}),
         cmdTraceExport},
        {"trace info", "<file>",
         "print a validated trace header and content hash", 1, {},
         cmdTraceInfo},
        {"trace gen", "", "generate an adversarial stressor stream", 0,
         {out,
          {"family", "F",
           "stressor family ('help' lists them; default phase-alias)"},
          {"seed", "N", "generator seed (default 1)"},
          {"intervals", "N", "intervals (default 600)"},
          {"interval", "N", "instructions per interval (default "
                            "100000)"}},
         cmdTraceGen},
        {"trace corpus", "<dir>",
         "write the corruption corpus and its MANIFEST", 1, {},
         cmdTraceCorpus},
    };
    return table;
}

/** The command list; exits with @p code. */
int
usage(std::ostream &os, int code)
{
    os << "usage: tpcp <command> [args] [options]\n"
          "'tpcp <command> --help' lists a command's options\n"
          "commands:\n";
    for (const Command &c : commands()) {
        std::string line = "  " + c.name + " " + c.operands;
        line.resize(std::max<std::size_t>(line.size() + 2, 32), ' ');
        os << line << c.summary << "\n";
    }
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> argl(argv + 1, argv + argc);
    if (argl.empty())
        return usage(std::cerr, 2);
    if (argl[0] == "--help" || argl[0] == "-h")
        return usage(std::cout, 0);
    const std::string one = argl[0];
    const std::string two = argl.size() > 1 ? one + " " + argl[1] : "";
    for (const Command &c : commands()) {
        if (c.name != one && c.name != two)
            continue;
        const std::size_t words = c.name == one ? 1 : 2;
        const cli::Args args = cli::parseArgs(
            {argl.begin() + static_cast<std::ptrdiff_t>(words),
             argl.end()},
            c.flags, "tpcp " + c.name + (c.operands.empty() ? "" : " ") +
                         c.operands,
            c.maxPositional);
        // The library raises recoverable tpcp::Error instead of
        // exiting; the tool is the process boundary that turns an
        // unhandled one into exit code 1.
        try {
            return c.run(args);
        } catch (const Error &e) {
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }
    }
    return usage(std::cerr, 2);
}
