/**
 * @file
 * Unit tests for the adaptation controller and the report scoring:
 * input validation, penalty accounting, determinism, and the
 * baseline orderings (oracle >= static-best >= always-big savings)
 * on planted lattice profiles.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/status.hh"
#include "adapt/controller.hh"
#include "adapt/report.hh"
#include "adapt_test_util.hh"

using namespace tpcp;
using namespace tpcp::adapt;
using adapt_test::Cell;
using adapt_test::makeLatticeProfiles;
using adapt_test::phasesOf;

namespace
{

/** Two phases: phase 1 prefers big, phase 2 prefers small. */
std::vector<Cell>
twoPhaseCells(std::size_t reps)
{
    // On the 4-point small lattice (l1d x width): phase 1 degrades
    // badly on every smaller point; phase 2 is miss-bound and
    // barely slows down.
    std::vector<Cell> cells;
    for (std::size_t r = 0; r < reps; ++r) {
        for (int i = 0; i < 6; ++i)
            cells.push_back({1, {1.0, 1.8, 2.0, 2.6}});
        for (int i = 0; i < 6; ++i)
            cells.push_back({2, {3.0, 3.02, 3.05, 3.08}});
    }
    return cells;
}

} // namespace

TEST(AdaptController, RejectsMismatchedProfileCount)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(2);
    auto profiles = makeLatticeProfiles(3, cells); // lattice has 4
    AdaptController controller(lattice);
    EXPECT_THROW(controller.run(profiles, phasesOf(cells)),
                 tpcp::Error);
}

TEST(AdaptController, RejectsMismatchedPhaseStream)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(2);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    std::vector<PhaseId> short_phases(cells.size() - 1, 1);
    AdaptController controller(lattice);
    EXPECT_THROW(controller.run(profiles, short_phases),
                 tpcp::Error);
}

TEST(AdaptController, SinglePhaseSingleConfigHasNoSwitches)
{
    // A one-point "lattice" can never switch: totals must be the
    // plain sum over the profile and the penalty must stay zero.
    ConfigLattice lattice(uarch::MachineConfig::table1(),
                          {{StepKind::L1dCache, 1}});
    std::vector<Cell> cells(20, Cell{1, {2.0}});
    auto profiles = makeLatticeProfiles(1, cells);
    AdaptController controller(lattice);
    ControllerResult res =
        controller.run(profiles, phasesOf(cells));

    EXPECT_EQ(res.switches.total(), 0u);
    EXPECT_EQ(res.switches.penaltyCycles, 0u);
    EXPECT_DOUBLE_EQ(res.totals.cycles, 20 * 2.0 * 100'000.0);
    EXPECT_EQ(res.phaseChanges, 0u);
}

TEST(AdaptController, RunsAreDeterministic)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(8);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptController controller(lattice);
    ControllerResult a = controller.run(profiles, phasesOf(cells));
    ControllerResult b = controller.run(profiles, phasesOf(cells));
    EXPECT_EQ(a.activeConfig, b.activeConfig);
    EXPECT_DOUBLE_EQ(a.totals.edp, b.totals.edp);
    EXPECT_EQ(a.switches.penaltyCycles, b.switches.penaltyCycles);
}

TEST(AdaptController, EverySwitchIsCharged)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(8);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptController controller(lattice);
    ControllerResult res =
        controller.run(profiles, phasesOf(cells));
    ASSERT_GT(res.switches.total(), 0u);
    PenaltyConfig pc;
    Cycles floor = res.switches.total() *
                   std::min(pc.predictedSwitchCycles,
                            pc.unpredictedSwitchCycles);
    EXPECT_GE(res.switches.penaltyCycles, floor);
    // Config changes in the per-interval record match the stats.
    std::uint64_t observed = 0;
    for (std::size_t t = 1; t < res.activeConfig.size(); ++t) {
        if (res.activeConfig[t] != res.activeConfig[t - 1])
            ++observed;
    }
    EXPECT_EQ(observed, res.switches.total());
}

TEST(AdaptReport, BaselineOrderingOnPlantedProfiles)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(20);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptReport r = runAdaptation("synthetic",
                                  policyPresetByName("greedy"),
                                  lattice, profiles,
                                  phasesOf(cells));

    // The oracle dominates every other schedule of lattice configs,
    // and a per-phase oracle can never lose to the best single
    // config under the additive interval-EDP objective.
    EXPECT_GE(r.edpSavings(r.oracle) + 1e-12,
              r.edpSavings(r.staticBest));
    EXPECT_GE(r.edpSavings(r.staticBest) + 1e-12, 0.0);
    EXPECT_LE(r.policyTotals.edp, r.alwaysBig.edp * 1.05)
        << "the policy must stay near the always-big baseline on "
           "profiles with an exploitable small-config phase";
    EXPECT_EQ(r.intervals, cells.size());
    EXPECT_EQ(r.numConfigs, lattice.size());
}

TEST(AdaptReport, PolicyApproachesOracleOnStablePhases)
{
    ConfigLattice lattice = ConfigLattice::small();
    // Long, strongly separated phases: the policy should find each
    // phase's planted best and capture most of the oracle saving.
    std::vector<Cell> cells;
    for (int i = 0; i < 120; ++i)
        cells.push_back({1, {1.0, 1.8, 2.0, 2.6}});
    for (int i = 0; i < 120; ++i)
        cells.push_back({2, {3.0, 3.0, 3.0, 3.0}});
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptReport r = runAdaptation("synthetic",
                                  policyPresetByName("greedy"),
                                  lattice, profiles,
                                  phasesOf(cells));
    ASSERT_GT(r.edpSavings(r.oracle), 0.0);
    EXPECT_GT(r.oracleFraction(), 0.80);
    // Phase 2 is insensitive to the configuration, so its oracle
    // choice is the leakage-minimal small point.
    for (const PhaseChoice &pc : r.perPhase) {
        if (pc.phase == 2) {
            EXPECT_EQ(pc.oracleConfig, lattice.size() - 1);
        }
    }
}

TEST(AdaptReport, JsonCarriesTheHeadlineNumbers)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(10);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptReport r = runAdaptation("synthetic",
                                  policyPresetByName("greedy"),
                                  lattice, profiles,
                                  phasesOf(cells));
    std::string json = toJson(r);
    EXPECT_NE(json.find("\"workload\": \"synthetic\""),
              std::string::npos);
    EXPECT_NE(json.find("\"policy\": \"greedy\""),
              std::string::npos);
    EXPECT_NE(json.find("\"oracle_fraction\":"), std::string::npos);
    EXPECT_NE(json.find("\"per_phase\": ["), std::string::npos);
    // Serialization is deterministic.
    EXPECT_EQ(json, toJson(r));
}

namespace
{

/** A hand-built report whose every field is distinct: an escaped
 * workload name, a negative saving (static-best worse than
 * always-big) and an oracle fraction where %.10g and %g differ. */
AdaptReport
pinnedReport()
{
    AdaptReport r;
    r.workload = "we\"ird\\wl\n\t\x01";
    r.policy = "greedy";
    r.lattice = "big/3";
    r.numConfigs = 3;
    r.intervals = 40;
    r.numPhases = 2;
    r.switches.predicted = 3;
    r.switches.exploration = 2;
    r.switches.reactive = 1;
    r.switches.penaltyCycles = 700;
    r.phaseChanges = 5;
    r.unanticipatedChanges = 2;
    r.lengthGateSkips = 1;
    r.policyTotals = {1200.0, 1.5, 3.0};
    r.alwaysBig = {1000.0, 2.5, 4.0};
    r.staticBest = {1100.0, 2.0, 5.0};
    r.staticBestConfig = "mid";
    r.oracle = {1000.0, 1.0, 1.0};
    r.perPhase.push_back({0, 10, 0, 0});
    r.perPhase.push_back({3, 30, 2, 1});
    return r;
}

const char *const kPinnedJson =
    "{\"workload\": \"we\\\"ird\\\\wl\\n\\t\\u0001\", "
    "\"policy\": \"greedy\", \"lattice\": \"big/3\", "
    "\"num_configs\": 3, \"intervals\": 40, \"num_phases\": 2, "
    "\"switches\": 6, \"switches_predicted\": 3, "
    "\"switches_exploration\": 2, \"switches_reactive\": 1, "
    "\"penalty_cycles\": 700, \"phase_changes\": 5, "
    "\"unanticipated_changes\": 2, \"length_gate_skips\": 1, "
    "\"policy_totals\": {\"cycles\": 1200, \"energy\": 1.5, "
    "\"edp\": 3}, "
    "\"always_big\": {\"cycles\": 1000, \"energy\": 2.5, "
    "\"edp\": 4}, "
    "\"static_best\": {\"cycles\": 1100, \"energy\": 2, "
    "\"edp\": 5}, "
    "\"static_best_config\": \"mid\", "
    "\"oracle\": {\"cycles\": 1000, \"energy\": 1, \"edp\": 1}, "
    "\"edp_savings_policy\": 0.25, \"edp_savings_static\": -0.25, "
    "\"edp_savings_oracle\": 0.75, "
    "\"oracle_fraction\": 0.3333333333, \"slowdown\": 0.2, "
    "\"per_phase\": [{\"phase\": 0, \"intervals\": 10, "
    "\"policy_config\": 0, \"oracle_config\": 0}, "
    "{\"phase\": 3, \"intervals\": 30, \"policy_config\": 2, "
    "\"oracle_config\": 1}]}";

} // namespace

TEST(AdaptReport, JsonIsPinnedByteForByte)
{
    EXPECT_EQ(toJson(pinnedReport()), kPinnedJson);
}

TEST(AdaptReport, JsonArrayIsOneReportPerLine)
{
    EXPECT_EQ(toJson(std::vector<AdaptReport>{}), "[\n]\n");
    EXPECT_EQ(toJson(std::vector<AdaptReport>{pinnedReport(),
                                              pinnedReport()}),
              std::string("[\n  ") + kPinnedJson + ",\n  " +
                  kPinnedJson + "\n]\n");
}

TEST(AdaptReport, PresetsAreNamedAndValidated)
{
    EXPECT_EQ(policyPresetByName("greedy").name, "greedy");
    PolicyPreset nopred = policyPresetByName("greedy-nopred");
    EXPECT_FALSE(nopred.options.anticipate);
    EXPECT_FALSE(nopred.options.lengthGate);
    PolicyPreset tage = policyPresetByName("greedy-tage");
    EXPECT_NE(tage.options.changePredictor.make(), nullptr);
    EXPECT_EQ(tage.options.changePredictor.make()->name(), "TAGE");
    PolicyPreset perc = policyPresetByName("greedy-perceptron");
    EXPECT_NE(perc.options.changePredictor.make(), nullptr);
    EXPECT_EQ(perc.options.changePredictor.make()->name(),
              "Perceptron");
    EXPECT_THROW((void)policyPresetByName("nosuch"), tpcp::Error);
    EXPECT_EQ(policyPresetNames().size(), 4u);
}
