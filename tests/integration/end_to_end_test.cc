/**
 * @file
 * Integration tests: the full pipeline (program -> simulator ->
 * profiler -> classifier -> predictors -> metrics) on small
 * hand-scripted multi-region programs with known phase structure.
 */

#include <gtest/gtest.h>

#include "analysis/cov.hh"
#include "analysis/experiment.hh"
#include "analysis/run_lengths.hh"
#include "pred/eval.hh"
#include "trace/interval_profiler.hh"
#include "uarch/ooo_core.hh"
#include "uarch/simple_core.hh"
#include "uarch/simulator.hh"
#include "workload/phase_script.hh"
#include "workload/program_builder.hh"

using namespace tpcp;

namespace
{

constexpr InstCount kInterval = 20'000;

/** Three visibly different regions: ALU-bound, memory-bound, FP. */
isa::Program
threeRegionProgram(std::uint32_t *regions_out)
{
    workload::ProgramBuilder pb(99);

    workload::RegionParams alu;
    alu.name = "alu";
    alu.numBlocks = 8;
    alu.avgBlockInsts = 12;
    alu.loadFrac = 0.1;
    alu.storeFrac = 0.05;
    alu.workingSetBytes = 8 * 1024;
    alu.bernoulliFrac = 0.0;
    alu.ilp = 6;
    regions_out[0] = pb.addRegion(alu);

    workload::RegionParams mem;
    mem.name = "mem";
    mem.numBlocks = 10;
    mem.avgBlockInsts = 10;
    mem.loadFrac = 0.35;
    mem.storeFrac = 0.1;
    mem.workingSetBytes = 2 * 1024 * 1024;
    mem.randomAccessFrac = 0.8;
    mem.numStreams = 4;
    regions_out[1] = pb.addRegion(mem);

    workload::RegionParams fp;
    fp.name = "fp";
    fp.numBlocks = 6;
    fp.avgBlockInsts = 14;
    fp.fpFrac = 0.5;
    fp.loadFrac = 0.15;
    fp.workingSetBytes = 16 * 1024;
    fp.bernoulliFrac = 0.0;
    fp.ilp = 2;
    regions_out[2] = pb.addRegion(fp);

    return pb.build("three");
}

/** Profiles @p program under @p script on the fast core. */
trace::IntervalProfile
profileScript(const isa::Program &program,
              const workload::ScriptPtr &script,
              std::uint64_t seed = 7)
{
    Rng rng(seed);
    workload::ExpandedSchedule sched(
        workload::expandScript(script, rng));
    uarch::SimpleCore core(uarch::MachineConfig::table1());
    uarch::Simulator sim(program, sched, core, seed);
    trace::IntervalProfiler profiler(core, "e2e", kInterval,
                                     {8, 16});
    sim.addSink(&profiler);
    sim.run();
    return profiler.takeProfile();
}

/** Periodic A/B/C script: @p dwell intervals per region. */
workload::ScriptPtr
periodicScript(const std::uint32_t *r, double dwell, unsigned reps)
{
    using namespace workload;
    InstCount insts =
        static_cast<InstCount>(dwell * kInterval);
    return scriptLoop(scriptSeq({scriptRun(r[0], insts, 0.0),
                                 scriptRun(r[1], insts, 0.0),
                                 scriptRun(r[2], insts, 0.0)}),
                      reps);
}

phase::ClassifierConfig
config(double threshold = 0.25, unsigned min_count = 0)
{
    phase::ClassifierConfig cfg;
    cfg.numCounters = 16;
    cfg.tableEntries = 32;
    cfg.similarityThreshold = threshold;
    cfg.minCountThreshold = min_count;
    return cfg;
}

} // namespace

TEST(EndToEnd, ThreeRegionsThreePhases)
{
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    trace::IntervalProfile prof =
        profileScript(p, periodicScript(r, 10, 8));
    ASSERT_GE(prof.numIntervals(), 200u);

    analysis::ClassificationResult res =
        analysis::classifyProfile(prof, config());
    EXPECT_GE(res.numPhases, 3u);
    EXPECT_LE(res.numPhases, 6u)
        << "three code regions, three-ish phases";
}

TEST(EndToEnd, ClassificationCutsCovDramatically)
{
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    trace::IntervalProfile prof =
        profileScript(p, periodicScript(r, 10, 8));
    analysis::ClassificationResult res =
        analysis::classifyProfile(prof, config());
    EXPECT_GT(res.wholeProgramCov, 0.3)
        << "regions must differ in CPI";
    EXPECT_LT(res.covCpi, res.wholeProgramCov / 3.0)
        << "per-phase CoV far below whole-program CoV (paper 4.3)";
}

TEST(EndToEnd, SamePhaseIdRecursAcrossPeriods)
{
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    trace::IntervalProfile prof =
        profileScript(p, periodicScript(r, 10, 8));
    analysis::ClassificationResult res =
        analysis::classifyProfile(prof, config());
    // The phase ID at the middle of period 2's A-dwell equals the
    // one in period 5's A-dwell.
    const auto &ids = res.trace.phases;
    ASSERT_GT(ids.size(), 150u);
    EXPECT_EQ(ids[35], ids[35 + 30 * 3])
        << "phases recur with the same ID";
}

TEST(EndToEnd, TransitionPhaseMarksBoundaries)
{
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    trace::IntervalProfile prof =
        profileScript(p, periodicScript(r, 10, 8));
    analysis::ClassificationResult strict = analysis::classifyProfile(
        prof, config(0.25, 8));
    // Some intervals (first sightings + straddling intervals) are
    // transition; but far from all.
    EXPECT_GT(strict.transitionFraction, 0.0);
    EXPECT_LT(strict.transitionFraction, 0.4);
}

TEST(EndToEnd, MinCountReducesPhaseCount)
{
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    // Jittered dwells create straddling intervals -> one-off
    // signatures that the transition phase absorbs.
    using namespace workload;
    auto script = scriptLoop(
        scriptSeq({scriptRun(r[0], 8 * kInterval, 0.3),
                   scriptRun(r[1], 5 * kInterval, 0.3),
                   scriptRun(r[2], 6 * kInterval, 0.3)}),
        12);
    trace::IntervalProfile prof = profileScript(p, script);
    auto no_min = analysis::classifyProfile(prof, config(0.25, 0));
    auto with_min = analysis::classifyProfile(prof, config(0.25, 8));
    EXPECT_LE(with_min.numPhases, no_min.numPhases)
        << "the transition phase absorbs one-off signatures";
}

TEST(EndToEnd, StableRunsMatchScriptDwell)
{
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    trace::IntervalProfile prof =
        profileScript(p, periodicScript(r, 10, 8));
    analysis::ClassificationResult res =
        analysis::classifyProfile(prof, config());
    EXPECT_NEAR(res.runLengths.stableAvg, 10.0, 3.0)
        << "average stable run tracks the scripted dwell";
}

TEST(EndToEnd, PeriodicPhasesAreRlePredictable)
{
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    trace::IntervalProfile prof =
        profileScript(p, periodicScript(r, 10, 8));
    analysis::ClassificationResult res =
        analysis::classifyProfile(prof, config());

    pred::NextPhaseStats lv =
        pred::evalNextPhase(res.trace.phases, std::nullopt);
    pred::NextPhaseStats rle = pred::evalNextPhase(
        res.trace.phases,
        pred::PredictorSpec::tableSpec(pred::ChangePredictorConfig::rle(2)));
    EXPECT_GT(lv.accuracy(), 0.8) << "long stable runs";
    EXPECT_GE(rle.accuracy(), lv.accuracy())
        << "RLE must not hurt on a periodic trace";
}

TEST(EndToEnd, ChangeOutcomesLearnable)
{
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    trace::IntervalProfile prof =
        profileScript(p, periodicScript(r, 10, 10));
    analysis::ClassificationResult res =
        analysis::classifyProfile(prof, config());
    pred::ChangeOutcomeStats ch = pred::evalChangeOutcome(
        res.trace.phases, pred::PredictorSpec::tableSpec(
                              pred::ChangePredictorConfig::markov(1)));
    EXPECT_GT(ch.correctRate(), 0.5)
        << "A->B->C->A changes are first-order predictable";
    pred::PerfectMarkovStats perfect =
        pred::evalPerfectMarkov(res.trace.phases, 1);
    EXPECT_GE(perfect.coverage() + 1e-9, ch.correctRate());
}

TEST(EndToEnd, AdaptiveThresholdSplitsDriftingPhase)
{
    // Drift between the ALU and MEM regions: at 25% with signature
    // creep this tends to stay one phase with huge CPI variance; the
    // adaptive classifier splits it.
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    using namespace workload;
    auto script =
        scriptLoop(scriptSeq({scriptDrift(r[0], r[1],
                                          60 * kInterval, 4'000,
                                          0.05, 0.95),
                              scriptRun(r[2], 10 * kInterval, 0.1)}),
                   6);
    trace::IntervalProfile prof = profileScript(p, script);

    phase::ClassifierConfig stat = config(0.25, 0);
    phase::ClassifierConfig dyn = stat;
    dyn.adaptiveThreshold = true;
    dyn.cpiDeviationThreshold = 0.25;
    auto static_res = analysis::classifyProfile(prof, stat);
    auto dyn_res = analysis::classifyProfile(prof, dyn);
    EXPECT_LT(dyn_res.covCpi, static_res.covCpi)
        << "performance feedback must improve homogeneity";
    EXPECT_GT(dyn_res.classifierStats.thresholdHalvings, 0u);
}

TEST(EndToEnd, OooAndSimpleCoresAgreeOnStructure)
{
    // The two cores yield different absolute CPI but the same phase
    // structure (classification depends only on code signatures).
    std::uint32_t r[3];
    isa::Program p = threeRegionProgram(r);
    auto script = periodicScript(r, 10, 5);

    Rng rng1(7), rng2(7);
    workload::ExpandedSchedule sched1(
        workload::expandScript(script, rng1));
    workload::ExpandedSchedule sched2(
        workload::expandScript(script, rng2));

    uarch::SimpleCore simple(uarch::MachineConfig::table1());
    uarch::OooCore ooo(uarch::MachineConfig::table1());

    uarch::Simulator sim1(p, sched1, simple, 7);
    trace::IntervalProfiler prof1(simple, "s", kInterval, {16});
    sim1.addSink(&prof1);
    sim1.run();

    uarch::Simulator sim2(p, sched2, ooo, 7);
    trace::IntervalProfiler prof2(ooo, "o", kInterval, {16});
    sim2.addSink(&prof2);
    sim2.run();

    auto res1 =
        analysis::classifyProfile(prof1.profile(), config());
    auto res2 =
        analysis::classifyProfile(prof2.profile(), config());
    EXPECT_EQ(res1.numPhases, res2.numPhases)
        << "same code stream => same phase structure on both cores";
}
