#include "adapt/report.hh"

#include <map>

#include "analysis/experiment.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/status.hh"

namespace tpcp::adapt
{

PolicyPreset
policyPresetByName(const std::string &name)
{
    PolicyPreset preset;
    preset.name = name;
    if (name == "greedy")
        return preset;
    if (name == "greedy-nopred") {
        // Last-value prediction only: no anticipatory switches, no
        // run-length gating — isolates the value of the paper's
        // change/length predictors in the adaptation loop.
        preset.options.anticipate = false;
        preset.options.lengthGate = false;
        return preset;
    }
    if (name == "greedy-tage") {
        // The cascade keeps the paper RLE-2 alarm's precision and
        // lets TAGE generalize where it is silent — a pure swap
        // trades away precisely-timed alarms the greedy baseline
        // relies on.
        pred::TagePredictorConfig tcfg;
        tcfg.rleAssist = true;
        tcfg.confThreshold = 3;
        preset.options.changePredictor =
            pred::PredictorSpec::tageSpec(tcfg);
        return preset;
    }
    if (name == "greedy-perceptron") {
        preset.options.changePredictor =
            pred::PredictorSpec::perceptronSpec();
        return preset;
    }
    tpcp_raise("unknown adapt policy '", name,
               "' (expected greedy | greedy-nopred | greedy-tage | "
               "greedy-perceptron)");
}

const std::vector<std::string> &
policyPresetNames()
{
    static const std::vector<std::string> names = {
        "greedy", "greedy-nopred", "greedy-tage",
        "greedy-perceptron"};
    return names;
}

double
AdaptReport::edpSavings(const RunTotals &t) const
{
    if (alwaysBig.edp <= 0.0)
        return 0.0;
    return (alwaysBig.edp - t.edp) / alwaysBig.edp;
}

double
AdaptReport::oracleFraction() const
{
    double oracle_savings = edpSavings(oracle);
    if (oracle_savings <= 0.0)
        return 0.0;
    return edpSavings(policyTotals) / oracle_savings;
}

double
AdaptReport::slowdown() const
{
    if (alwaysBig.cycles <= 0.0)
        return 0.0;
    return policyTotals.cycles / alwaysBig.cycles - 1.0;
}

namespace
{

void
appendTotals(std::string &out, const char *key, const RunTotals &t)
{
    appendKey(out, key);
    out += '{';
    appendField(out, "cycles", t.cycles);
    appendField(out, "energy", t.energy);
    appendField(out, "edp", t.edp, true);
    out += "}, ";
}

} // namespace

std::string
toJson(const AdaptReport &r)
{
    std::string out = "{";
    appendField(out, "workload", r.workload);
    appendField(out, "policy", r.policy);
    appendField(out, "lattice", r.lattice);
    appendField(out, "num_configs", r.numConfigs);
    appendField(out, "intervals", r.intervals);
    appendField(out, "num_phases", r.numPhases);
    appendField(out, "switches", r.switches.total());
    appendField(out, "switches_predicted", r.switches.predicted);
    appendField(out, "switches_exploration",
                r.switches.exploration);
    appendField(out, "switches_reactive", r.switches.reactive);
    appendField(out, "penalty_cycles", r.switches.penaltyCycles);
    appendField(out, "phase_changes", r.phaseChanges);
    appendField(out, "unanticipated_changes",
                r.unanticipatedChanges);
    appendField(out, "length_gate_skips", r.lengthGateSkips);
    appendTotals(out, "policy_totals", r.policyTotals);
    appendTotals(out, "always_big", r.alwaysBig);
    appendTotals(out, "static_best", r.staticBest);
    appendField(out, "static_best_config", r.staticBestConfig);
    appendTotals(out, "oracle", r.oracle);
    appendField(out, "edp_savings_policy",
                r.edpSavings(r.policyTotals));
    appendField(out, "edp_savings_static",
                r.edpSavings(r.staticBest));
    appendField(out, "edp_savings_oracle", r.edpSavings(r.oracle));
    appendField(out, "oracle_fraction", r.oracleFraction());
    appendField(out, "slowdown", r.slowdown());
    out += "\"per_phase\": [";
    for (std::size_t i = 0; i < r.perPhase.size(); ++i) {
        const PhaseChoice &pc = r.perPhase[i];
        out += "{";
        appendField(out, "phase", pc.phase);
        appendField(out, "intervals", pc.intervals);
        appendField(out, "policy_config", pc.policyConfig);
        appendField(out, "oracle_config", pc.oracleConfig, true);
        out += "}";
        if (i + 1 < r.perPhase.size())
            out += ", ";
    }
    out += "]}";
    return out;
}

std::string
toJson(const std::vector<AdaptReport> &reports)
{
    return toJsonLines(reports);
}

std::vector<trace::IntervalProfile>
buildLatticeProfiles(const std::string &workload_name,
                     const ConfigLattice &lattice,
                     const trace::ProfileOptions &base)
{
    std::vector<trace::IntervalProfile> profiles;
    profiles.reserve(lattice.size());
    for (std::size_t c = 0; c < lattice.size(); ++c) {
        trace::ProfileOptions opts = base;
        opts.machine = lattice.machine(c);
        profiles.push_back(
            trace::getProfileByName(workload_name, opts));
    }
    return profiles;
}

namespace
{

/** Per-interval energy x delay of interval @p t on config @p c. */
double
intervalEdp(const EnergyModel &model, const ConfigLattice &lattice,
            const trace::IntervalProfile &profile, std::size_t c,
            std::size_t t, double *cycles_out, double *energy_out)
{
    const trace::IntervalRecord &rec = profile.interval(t);
    double cycles =
        rec.cpi * static_cast<double>(rec.insts);
    double energy = model.intervalEnergy(
        lattice.machine(c), rec.insts,
        static_cast<Cycles>(cycles));
    if (cycles_out)
        *cycles_out = cycles;
    if (energy_out)
        *energy_out = energy;
    return energy * cycles;
}

} // namespace

AdaptReport
runAdaptation(const std::string &workload_name,
              const PolicyPreset &preset,
              const ConfigLattice &lattice,
              const trace::ProfileOptions &base)
{
    std::vector<trace::IntervalProfile> profiles =
        buildLatticeProfiles(workload_name, lattice, base);
    analysis::ClassificationResult cls = analysis::classifyProfile(
        profiles[ConfigLattice::bigIndex],
        phase::ClassifierConfig::paperDefault());
    return runAdaptation(workload_name, preset, lattice, profiles,
                         cls.trace.phases);
}

AdaptReport
runTraceAdaptation(const trace::IntervalProfile &profile,
                   const PolicyPreset &preset,
                   const ConfigLattice &lattice)
{
    // Recorded-CPI mode: one copy of the trace per lattice point —
    // identical timing everywhere, so config choices trade energy
    // only (see report.hh).
    std::vector<trace::IntervalProfile> profiles(lattice.size(),
                                                 profile);
    analysis::ClassificationResult cls = analysis::classifyProfile(
        profile, phase::ClassifierConfig::paperDefault());
    return runAdaptation(profile.workload(), preset, lattice,
                         profiles, cls.trace.phases);
}

AdaptReport
runAdaptation(const std::string &workload_name,
              const PolicyPreset &preset,
              const ConfigLattice &lattice,
              const std::vector<trace::IntervalProfile> &profiles,
              const std::vector<PhaseId> &phases)
{
    AdaptController controller(lattice, preset.options);
    ControllerResult run = controller.run(profiles, phases);
    EnergyModel model(preset.options.energy);

    AdaptReport r;
    r.workload = workload_name;
    r.policy = preset.name;
    r.lattice = lattice.name(ConfigLattice::bigIndex) + "/" +
                std::to_string(lattice.size());
    r.numConfigs = lattice.size();
    r.intervals = phases.size();
    r.switches = run.switches;
    r.phaseChanges = run.phaseChanges;
    r.unanticipatedChanges = run.unanticipatedChanges;
    r.lengthGateSkips = run.lengthGateSkips;
    r.policyTotals = run.totals;

    std::size_t n = phases.size();
    bool pin_transition = preset.options.policy.bigOnTransition;

    // Per-config whole-run totals (always-big and static-best) and
    // per-(phase, config) EDP sums for the oracle.
    std::vector<RunTotals> per_config(lattice.size());
    std::map<PhaseId, std::vector<double>> phase_edp;
    std::map<PhaseId, std::size_t> phase_intervals;
    for (std::size_t c = 0; c < lattice.size(); ++c) {
        for (std::size_t t = 0; t < n; ++t) {
            double cycles = 0.0, energy = 0.0;
            double edp = intervalEdp(model, lattice, profiles[c],
                                     c, t, &cycles, &energy);
            per_config[c].cycles += cycles;
            per_config[c].energy += energy;
            per_config[c].edp += edp;
            auto &sums = phase_edp[phases[t]];
            sums.resize(lattice.size());
            sums[c] += edp;
            if (c == 0)
                ++phase_intervals[phases[t]];
        }
    }
    r.alwaysBig = per_config[ConfigLattice::bigIndex];

    std::size_t static_best = ConfigLattice::bigIndex;
    for (std::size_t c = 1; c < lattice.size(); ++c) {
        if (per_config[c].edp < per_config[static_best].edp)
            static_best = c;
    }
    r.staticBest = per_config[static_best];
    r.staticBestConfig = lattice.name(static_best);

    // Oracle: per phase, the config minimizing that phase's EDP sum
    // (transition pinned big when the policy pins it, so the bound
    // is the one the policy can actually approach).
    std::map<PhaseId, std::size_t> oracle_choice;
    for (const auto &[phase, sums] : phase_edp) {
        std::size_t best = ConfigLattice::bigIndex;
        if (!(pin_transition && phase == transitionPhaseId)) {
            for (std::size_t c = 1; c < lattice.size(); ++c) {
                if (sums[c] < sums[best])
                    best = c;
            }
        }
        oracle_choice[phase] = best;
    }
    for (std::size_t t = 0; t < n; ++t) {
        std::size_t c = oracle_choice[phases[t]];
        double cycles = 0.0, energy = 0.0;
        double edp = intervalEdp(model, lattice, profiles[c], c, t,
                                 &cycles, &energy);
        r.oracle.cycles += cycles;
        r.oracle.energy += energy;
        r.oracle.edp += edp;
    }

    r.numPhases = phase_edp.size();
    for (const auto &[phase, count] : phase_intervals) {
        PhaseChoice pc;
        pc.phase = phase;
        pc.intervals = count;
        auto it = run.bestPerPhase.find(phase);
        pc.policyConfig = it == run.bestPerPhase.end()
                              ? ConfigLattice::bigIndex
                              : it->second;
        pc.oracleConfig = oracle_choice[phase];
        r.perPhase.push_back(pc);
    }
    return r;
}

} // namespace tpcp::adapt
