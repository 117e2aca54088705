/**
 * @file
 * Unit tests for the command-line workload set: positional names,
 * --trace files or all 11 workloads, with every usage error exiting
 * 2 before anything is simulated. A trace is a first-class workload:
 * classifying an exported trace yields the exact phase stream of the
 * profile it was exported from.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/experiment.hh"
#include "analysis/workload_set.hh"
#include "trace/trace_file.hh"
#include "workload/adversarial.hh"
#include "workload/workload.hh"

using namespace tpcp;
using namespace tpcp::analysis;

namespace
{

const std::string kSeedTrace =
    std::string(TPCP_SOURCE_DIR) + "/tests/corpus/corruption/seed.tpcptrace";

cli::Args
argsOf(std::vector<std::string> positional, const std::string &trace = "")
{
    cli::Args args;
    args.positional = std::move(positional);
    if (!trace.empty())
        args.values["trace"] = trace;
    return args;
}

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

} // namespace

TEST(WorkloadSet, NothingNamedMeansAllWorkloads)
{
    WorkloadSet set = selectWorkloads(argsOf({}));
    EXPECT_EQ(set.names, workload::workloadNames());
    EXPECT_TRUE(set.traced.empty());
}

TEST(WorkloadSet, NamesKeepTheirOrderAndLoadLazily)
{
    WorkloadSet set = selectWorkloads(argsOf({"mcf", "ammp"}));
    EXPECT_EQ(set.names, (std::vector<std::string>{"mcf", "ammp"}));
    EXPECT_TRUE(set.traced.empty());
}

TEST(WorkloadSet, TraceFilesBecomeWorkloadsNamedByTheirHeaders)
{
    WorkloadSet set =
        selectWorkloads(argsOf({}, kSeedTrace + "," + kSeedTrace), false);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.names[0], "adv:phase-alias/s7");
    ASSERT_EQ(set.traced.size(), 2u);
    EXPECT_GT(set.profile(1, {}).numIntervals(), 0u);

    WorkloadSet one = selectWorkloads(argsOf({}, kSeedTrace), true);
    EXPECT_EQ(one.size(), 1u);

    cli::Args args = argsOf({}, kSeedTrace);
    args.jobs = 1;
    std::vector<NamedProfile> loaded = loadWorkloads(args);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].first, "adv:phase-alias/s7");
    EXPECT_EQ(loaded[0].second.numIntervals(),
              one.traced[0].numIntervals());
}

TEST(WorkloadSet, TraceListKeepsOrderAndHeaderNames)
{
    trace::IntervalProfile small("cachewl", "ooo", 1000, {4});
    trace::IntervalRecord rec;
    rec.cpi = 1.0;
    rec.insts = 1000;
    small.push(rec, std::vector<std::uint32_t>(4, 100u));
    const std::string p1 = tmpPath("list1.tpcptrace");
    const std::string p2 = tmpPath("list2.tpcptrace");
    trace::writeTrace(p1, small, "");
    workload::AdversarialSpec spec;
    spec.intervals = 10;
    trace::writeTrace(p2, workload::makeAdversarial(spec).profile, "");

    // Empty fields of the list are skipped.
    WorkloadSet set = selectWorkloads(argsOf({}, p1 + ",," + p2 + ","));
    EXPECT_EQ(set.names,
              (std::vector<std::string>{"cachewl", "adv:phase-alias/s1"}));
    ASSERT_EQ(set.traced.size(), 2u);
    EXPECT_EQ(set.traced[0].numIntervals(), 1u);
    EXPECT_EQ(set.traced[1].numIntervals(), 10u);
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(TraceWorkload, ClassifyTraceEqualsClassifyProfile)
{
    // An exported trace is the same workload: identical phase
    // stream, interval for interval.
    workload::AdversarialSpec spec;
    spec.family = "oscillation";
    spec.intervals = 120;
    workload::AdversarialTrace adv = workload::makeAdversarial(spec);

    const std::string path = tmpPath("classify.tpcptrace");
    trace::writeTrace(path, adv.profile, "");
    WorkloadSet set = selectWorkloads(argsOf({}, path), true);
    ASSERT_EQ(set.traced.size(), 1u);

    phase::ClassifierConfig cfg = phase::ClassifierConfig::paperDefault();
    ClassificationResult direct = classifyProfile(adv.profile, cfg);
    ClassificationResult via = classifyProfile(set.profile(0, {}), cfg);
    EXPECT_EQ(direct.trace.phases, via.trace.phases);
    EXPECT_EQ(direct.numPhases, via.numPhases);
    std::remove(path.c_str());
}

TEST(WorkloadSetDeathTest, UsageErrorsExitTwo)
{
    EXPECT_EXIT(selectWorkloads(argsOf({"mcf", "nosuch"})),
                testing::ExitedWithCode(2),
                "error: unknown workload 'nosuch'");
    EXPECT_EXIT(selectWorkloads(argsOf({"mcf"}, kSeedTrace)),
                testing::ExitedWithCode(2), "mutually exclusive");
    EXPECT_EXIT(selectWorkloads(argsOf({}, ",")),
                testing::ExitedWithCode(2),
                "error: --trace expects at least one value");
    EXPECT_EXIT(selectWorkloads(argsOf({}), true),
                testing::ExitedWithCode(2), "a workload name is required");
    EXPECT_EXIT(selectWorkloads(argsOf({"mcf", "ammp"}), true),
                testing::ExitedWithCode(2), "takes one workload");
    EXPECT_EXIT(
        selectWorkloads(argsOf({}, kSeedTrace + "," + kSeedTrace), true),
        testing::ExitedWithCode(2), "takes one workload");
}
