#include "fault/resilience.hh"

#include <algorithm>

#include "adapt/report.hh"
#include "common/json.hh"
#include "common/state_io.hh"
#include "common/status.hh"
#include "pred/phase_tracker.hh"

namespace tpcp::fault
{

namespace
{

/** Envelope tag of a harness checkpoint ("TPCF"). */
constexpr std::uint32_t harnessMagic = 0x46435054;
// v2: injector state grew the serve-layer fault counters.
// v3: the tracker image no longer carries an accumulator block.
constexpr std::uint32_t harnessVersion = 3;

/** Per-stream prediction bookkeeping. */
struct StreamStats
{
    std::vector<PhaseId> phases;
    std::uint64_t nextTotal = 0;
    std::uint64_t nextCorrect = 0;
    std::uint64_t changes = 0;
    std::uint64_t changeCorrect = 0;
    std::uint64_t lengthRuns = 0;
    std::uint64_t lengthCorrect = 0;
    bool havePrev = false;
    PhaseId prevPredicted = invalidPhaseId;

    double
    nextAcc() const
    {
        return nextTotal ? static_cast<double>(nextCorrect) /
                               static_cast<double>(nextTotal)
                         : 0.0;
    }

    double
    changeAcc() const
    {
        return changes ? static_cast<double>(changeCorrect) /
                             static_cast<double>(changes)
                       : 0.0;
    }

    double
    lengthAcc() const
    {
        return lengthRuns ? static_cast<double>(lengthCorrect) /
                                static_cast<double>(lengthRuns)
                          : 0.0;
    }
};

/** Feeds one interval and folds the output into the bookkeeping. */
void
step(pred::PhaseTracker &tracker, const std::uint32_t *raw,
     std::size_t n, InstCount total, double cpi, StreamStats &s)
{
    pred::PhaseTrackerOutput out =
        tracker.onIntervalRaw(raw, n, total, cpi);
    PhaseId id = out.classification.phase;
    if (s.havePrev) {
        ++s.nextTotal;
        if (s.prevPredicted == id)
            ++s.nextCorrect;
    }
    s.prevPredicted = out.nextPhase.phase;
    s.havePrev = true;
    if (out.changeOutcome) {
        ++s.changes;
        if (out.changeOutcome->anyCorrect)
            ++s.changeCorrect;
    }
    if (out.completedRun) {
        ++s.lengthRuns;
        if (out.completedRun->correct())
            ++s.lengthCorrect;
    }
    s.phases.push_back(id);
}

/** Flushes the final open run into the length accounting. */
void
finishLengths(pred::PhaseTracker &tracker, StreamStats &s)
{
    if (auto rec = tracker.mutableLengthPredictor().finish()) {
        ++s.lengthRuns;
        if (rec->correct())
            ++s.lengthCorrect;
    }
}

pred::PhaseTrackerConfig
trackerConfig(const ResilienceOptions &opts)
{
    pred::PhaseTrackerConfig cfg;
    cfg.changeTable = opts.changePredictor;
    if (opts.injector.mitigated) {
        cfg.classifier.parityProtect = true;
        cfg.classifier.scrubEvery = opts.scrubEvery;
    }
    return cfg;
}

void
saveStats(StateWriter &w, const StreamStats &s)
{
    w.u64(s.phases.size());
    for (PhaseId p : s.phases)
        w.u32(p);
    w.u64(s.nextTotal);
    w.u64(s.nextCorrect);
    w.u64(s.changes);
    w.u64(s.changeCorrect);
    w.u64(s.lengthRuns);
    w.u64(s.lengthCorrect);
    w.b(s.havePrev);
    w.u32(s.prevPredicted);
}

void
loadStats(StateReader &r, StreamStats &s)
{
    const std::uint64_t n = r.count(sizeof(std::uint32_t));
    s.phases.resize(n);
    for (std::uint64_t i = 0; i < n; ++i)
        s.phases[i] = r.u32();
    s.nextTotal = r.u64();
    s.nextCorrect = r.u64();
    s.changes = r.u64();
    s.changeCorrect = r.u64();
    s.lengthRuns = r.u64();
    s.lengthCorrect = r.u64();
    s.havePrev = r.b();
    s.prevPredicted = r.u32();
}

void
saveHarnessCheckpoint(const std::string &path,
                      const trace::IntervalProfile &profile,
                      const ResilienceOptions &opts,
                      const pred::PhaseTracker &tracker,
                      const Injector &injector,
                      const StreamStats &faulty)
{
    StateWriter w;
    w.str(profile.workload());
    w.str(targetName(opts.injector.target));
    w.f64(opts.injector.ratePerInterval);
    w.b(opts.injector.mitigated);
    w.u64(opts.injector.seed);
    w.u32(opts.dims);
    w.u32(opts.scrubEvery);
    tracker.saveState(w);
    injector.saveState(w);
    saveStats(w, faulty);
    if (!writeStateFile(path, harnessMagic, harnessVersion, w))
        tpcp_raise("cannot write resilience checkpoint ", path);
}

/** Restores tracker/injector/aggregates; returns the next interval
 * index. Raises when the checkpoint was taken under different
 * campaign options (resuming it would silently change the result). */
std::uint64_t
loadHarnessCheckpoint(const std::string &path,
                      const trace::IntervalProfile &profile,
                      const ResilienceOptions &opts,
                      pred::PhaseTracker &tracker, Injector &injector,
                      StreamStats &faulty)
{
    std::vector<std::uint8_t> payload =
        readStateFile(path, harnessMagic, harnessVersion);
    StateReader r(payload, "resilience checkpoint");
    std::string workload = r.str();
    std::string target = r.str();
    double rate = r.f64();
    bool mitigated = r.b();
    std::uint64_t seed = r.u64();
    std::uint32_t dims = r.u32();
    std::uint32_t scrub = r.u32();
    if (workload != profile.workload() ||
        target != targetName(opts.injector.target) ||
        rate != opts.injector.ratePerInterval ||
        mitigated != opts.injector.mitigated ||
        seed != opts.injector.seed || dims != opts.dims ||
        scrub != opts.scrubEvery)
        tpcp_raise("resilience checkpoint ", path,
                   " was taken under different campaign options "
                   "(workload '",
                   workload, "', target '", target, "', rate ", rate,
                   ")");
    tracker.loadState(r);
    injector.loadState(r);
    loadStats(r, faulty);
    if (faulty.phases.size() > profile.numIntervals())
        tpcp_raise("resilience checkpoint ", path, " holds ",
                   faulty.phases.size(), " intervals, the profile has ",
                   profile.numIntervals());
    if (!r.atEnd())
        tpcp_raise("resilience checkpoint ", path, ": ",
                   r.remaining(), " trailing payload bytes");
    return faulty.phases.size();
}

void
measureAdapt(const trace::IntervalProfile &profile,
             const ResilienceOptions &opts,
             const std::vector<PhaseId> &base_phases,
             const std::vector<PhaseId> &faulty_phases,
             ResilienceReport &report)
{
    adapt::ConfigLattice lattice =
        adapt::ConfigLattice::byName(opts.adaptLattice);
    adapt::PolicyPreset preset =
        adapt::policyPresetByName("greedy");
    trace::ProfileOptions base;
    base.intervalLen = profile.intervalLength();
    base.coreName = profile.coreName();
    std::vector<trace::IntervalProfile> lattice_profiles =
        adapt::buildLatticeProfiles(profile.workload(), lattice,
                                    base);
    adapt::AdaptReport clean = adapt::runAdaptation(
        profile.workload(), preset, lattice, lattice_profiles,
        base_phases);
    adapt::AdaptReport faulted = adapt::runAdaptation(
        profile.workload(), preset, lattice, lattice_profiles,
        faulty_phases);
    report.adaptMeasured = true;
    report.adaptOracleFracBase = clean.oracleFraction();
    report.adaptOracleFracFaulty = faulted.oracleFraction();
}

} // namespace

ResilienceReport
runResilience(const trace::IntervalProfile &profile,
              const ResilienceOptions &opts)
{
    bool have_dim = false;
    for (unsigned d : profile.dims())
        have_dim |= d == opts.dims;
    if (!have_dim)
        tpcp_raise("profile of '", profile.workload(),
                   "' was not recorded at ", opts.dims,
                   " accumulator counters");
    const std::size_t dim_idx = profile.dimIndex(opts.dims);
    const std::size_t n = profile.numIntervals();

    // Fault-free reference: cheap pure replay, recomputed on resume
    // instead of checkpointed.
    StreamStats base;
    {
        pred::PhaseTracker tracker(trackerConfig(opts));
        for (std::size_t i = 0; i < n; ++i) {
            const trace::IntervalRecord &rec = profile.interval(i);
            step(tracker, profile.counters(i, dim_idx), opts.dims,
                 rec.accumTotal, rec.cpi, base);
        }
        finishLengths(tracker, base);
    }

    // Faulty run, resumable from a harness checkpoint.
    pred::PhaseTracker tracker(trackerConfig(opts));
    Injector injector(opts.injector, profile.workload());
    StreamStats faulty;
    std::uint64_t start = 0;
    if (opts.resume) {
        if (opts.checkpointPath.empty())
            tpcp_raise("--resume needs a checkpoint path");
        start = loadHarnessCheckpoint(opts.checkpointPath, profile,
                                      opts, tracker, injector,
                                      faulty);
    }

    ResilienceReport report;
    report.workload = profile.workload();
    report.target = targetName(opts.injector.target);
    report.rate = opts.injector.ratePerInterval;
    report.mitigated = opts.injector.mitigated;

    std::vector<std::uint32_t> raw;
    for (std::uint64_t i = start; i < n; ++i) {
        const trace::IntervalRecord &rec = profile.interval(i);
        const std::uint32_t *stored = profile.counters(i, dim_idx);
        raw.assign(stored, stored + opts.dims);
        double cpi = rec.cpi;
        injector.beforeInterval(tracker, raw, cpi);
        step(tracker, raw.data(), raw.size(), rec.accumTotal, cpi,
             faulty);
        if (opts.checkpointAt != 0 && i + 1 == opts.checkpointAt &&
            i + 1 < n) {
            saveHarnessCheckpoint(opts.checkpointPath, profile, opts,
                                  tracker, injector, faulty);
            report.checkpointed = true;
            break;
        }
    }
    if (!report.checkpointed)
        finishLengths(tracker, faulty);

    report.intervals = faulty.phases.size();
    for (std::size_t i = 0; i < faulty.phases.size(); ++i)
        if (faulty.phases[i] == base.phases[i])
            ++report.agreeingIntervals;
    report.faults = injector.counts();
    report.nextPhaseAccBase = base.nextAcc();
    report.nextPhaseAccFaulty = faulty.nextAcc();
    report.changeAccBase = base.changeAcc();
    report.changeAccFaulty = faulty.changeAcc();
    report.lengthAccBase = base.lengthAcc();
    report.lengthAccFaulty = faulty.lengthAcc();

    const phase::ClassifierStats &cs =
        tracker.classifier().stats();
    report.repairs = cs.repairs;
    report.quarantines = cs.quarantines;
    report.eccCorrections =
        tracker.classifier().table().eccCorrections();
    report.rejectedCpiSamples = cs.rejectedCpiSamples;

    if (opts.withAdapt && !report.checkpointed)
        measureAdapt(profile, opts, base.phases, faulty.phases,
                     report);
    return report;
}

std::string
toJson(const ResilienceReport &r)
{
    std::string out = "{";
    appendField(out, "workload", r.workload);
    appendField(out, "target", r.target);
    appendField(out, "rate", r.rate);
    appendField(out, "mitigated", r.mitigated);
    appendField(out, "intervals", r.intervals);
    appendField(out, "faults_total", r.faults.total());
    appendField(out, "faults_accum", r.faults.accumFlips);
    appendField(out, "faults_signature", r.faults.signatureFlips);
    appendField(out, "faults_metadata", r.faults.metadataFaults);
    appendField(out, "faults_change_table",
                r.faults.changeTableFaults);
    appendField(out, "faults_length_table",
                r.faults.lengthTableFaults);
    appendField(out, "faults_input", r.faults.inputFaults);
    appendField(out, "agreeing_intervals", r.agreeingIntervals);
    appendField(out, "agreement", r.agreement());
    appendField(out, "next_phase_acc_base", r.nextPhaseAccBase);
    appendField(out, "next_phase_acc_faulty", r.nextPhaseAccFaulty);
    appendField(out, "next_phase_delta", r.nextPhaseDelta());
    appendField(out, "change_acc_base", r.changeAccBase);
    appendField(out, "change_acc_faulty", r.changeAccFaulty);
    appendField(out, "change_delta", r.changeDelta());
    appendField(out, "length_acc_base", r.lengthAccBase);
    appendField(out, "length_acc_faulty", r.lengthAccFaulty);
    appendField(out, "length_delta", r.lengthDelta());
    appendField(out, "repairs", r.repairs);
    appendField(out, "quarantines", r.quarantines);
    appendField(out, "ecc_corrections", r.eccCorrections);
    appendField(out, "rejected_cpi_samples", r.rejectedCpiSamples);
    appendField(out, "adapt_measured", r.adaptMeasured);
    appendField(out, "adapt_oracle_frac_base",
                r.adaptOracleFracBase);
    appendField(out, "adapt_oracle_frac_faulty",
                r.adaptOracleFracFaulty);
    appendField(out, "adapt_oracle_delta", r.adaptOracleDelta());
    appendField(out, "checkpointed", r.checkpointed, true);
    out += "}";
    return out;
}

std::string
toJson(const std::vector<ResilienceReport> &reports)
{
    return toJsonLines(reports);
}

} // namespace tpcp::fault
