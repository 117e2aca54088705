/**
 * @file
 * Unit tests for the command-line workload set: positional names,
 * --trace files or all 11 workloads, with every usage error exiting
 * 2 before anything is simulated.
 */

#include <gtest/gtest.h>

#include "analysis/workload_set.hh"
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

TEST(WorkloadSetDeathTest, UsageErrorsExitTwo)
{
    EXPECT_EXIT(selectWorkloads(argsOf({"mcf", "nosuch"})),
                testing::ExitedWithCode(2),
                "error: unknown workload 'nosuch'");
    EXPECT_EXIT(selectWorkloads(argsOf({"mcf"}, kSeedTrace)),
                testing::ExitedWithCode(2), "mutually exclusive");
    EXPECT_EXIT(selectWorkloads(argsOf({}, ",")),
                testing::ExitedWithCode(2), "at least one");
    EXPECT_EXIT(selectWorkloads(argsOf({}), true),
                testing::ExitedWithCode(2), "a workload name is required");
    EXPECT_EXIT(selectWorkloads(argsOf({"mcf", "ammp"}), true),
                testing::ExitedWithCode(2), "takes one workload");
    EXPECT_EXIT(
        selectWorkloads(argsOf({}, kSeedTrace + "," + kSeedTrace), true),
        testing::ExitedWithCode(2), "takes one workload");
}
