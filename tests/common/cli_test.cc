/**
 * @file
 * Unit tests for the command-line parser shared by `tpcp` and the
 * bench harnesses: a typo like --job=4 must fail loudly with the
 * valid options listed, not silently fall back to a serial sweep.
 * The BenchArgs suites are the harness cases; Cli covers positional
 * arguments, the --jobs bound, CSV lists, the --json writer and
 * tripwires with their floor files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/cli.hh"
#include "common/parse.hh"
#include "common/status.hh"

using namespace tpcp::cli;

namespace
{

const std::vector<FlagSpec> kExtras = {
    jobsFlag(),
    {"budgets", "V", "comma-separated sample budgets"},
    {"verbose", "", "chatty output"},
};

std::optional<Args>
parse(const std::vector<std::string> &argv, std::string &error,
      std::size_t max_positional = 0)
{
    return tryParseArgs(argv, kExtras, error, max_positional);
}

} // namespace

TEST(BenchArgs, EmptyArgvGivesDefaults)
{
    std::string error;
    auto args = parse({}, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_EQ(args->jobs, 0u);
    EXPECT_TRUE(args->values.empty());
    EXPECT_TRUE(args->positional.empty());
}

TEST(BenchArgs, ParsesJobsInBothForms)
{
    std::string error;
    auto eq = parse({"--jobs=4"}, error);
    ASSERT_TRUE(eq.has_value());
    EXPECT_EQ(eq->jobs, 4u);
    auto sep = parse({"--jobs", "8"}, error);
    ASSERT_TRUE(sep.has_value());
    EXPECT_EQ(sep->jobs, 8u);
}

TEST(BenchArgs, ParsesExtrasInBothForms)
{
    std::string error;
    auto args =
        parse({"--budgets=8,16", "--verbose", "--jobs", "2"}, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_TRUE(args->has("budgets"));
    EXPECT_EQ(args->get("budgets", ""), "8,16");
    EXPECT_TRUE(args->has("verbose"));
    EXPECT_EQ(args->jobs, 2u);
}

TEST(BenchArgs, UnknownFlagListsTheValidOptions)
{
    // The motivating typo: --job=4 instead of --jobs=4.
    std::string error;
    auto args = parse({"--job=4"}, error);
    EXPECT_FALSE(args.has_value());
    EXPECT_NE(error.find("unknown argument '--job=4'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("--jobs=N"), std::string::npos) << error;
    EXPECT_NE(error.find("--budgets=V"), std::string::npos)
        << error;
    EXPECT_NE(error.find("--verbose"), std::string::npos) << error;
}

TEST(BenchArgs, PositionalArgumentsAreRejected)
{
    std::string error;
    EXPECT_FALSE(parse({"gcc/1"}, error).has_value());
    EXPECT_NE(error.find("unknown argument 'gcc/1'"),
              std::string::npos);
}

TEST(BenchArgs, MissingValueIsAnError)
{
    std::string error;
    EXPECT_FALSE(parse({"--budgets"}, error).has_value());
    EXPECT_NE(error.find("--budgets expects a value"),
              std::string::npos)
        << error;
}

TEST(BenchArgs, ValueOnValuelessFlagIsAnError)
{
    std::string error;
    EXPECT_FALSE(parse({"--verbose=yes"}, error).has_value());
    EXPECT_NE(error.find("--verbose takes no value"),
              std::string::npos)
        << error;
}

TEST(BenchArgs, MalformedJobsIsAnError)
{
    std::string error;
    EXPECT_FALSE(parse({"--jobs=four"}, error).has_value());
    EXPECT_NE(error.find("non-negative integer"),
              std::string::npos)
        << error;
    EXPECT_FALSE(parse({"--jobs="}, error).has_value());
}

TEST(BenchArgs, TypedAccessorsConvertAndDefault)
{
    std::string error;
    auto args = parse({"--budgets=42"}, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_EQ(args->getU64("budgets", 0), 42u);
    EXPECT_DOUBLE_EQ(args->getDouble("budgets", 0.0), 42.0);
    EXPECT_EQ(args->getU64("absent", 7), 7u);
    EXPECT_DOUBLE_EQ(args->getDouble("absent", 2.5), 2.5);
    EXPECT_EQ(args->get("absent", "dflt"), "dflt");
    EXPECT_FALSE(args->has("absent"));
}

TEST(BenchArgs, NegativeOrOutOfRangeJobsIsAnError)
{
    // A minus sign must not wrap to 4294967295 worker threads.
    std::string error;
    EXPECT_FALSE(parse({"--jobs=-1"}, error).has_value());
    EXPECT_NE(error.find("non-negative integer"), std::string::npos)
        << error;
    EXPECT_FALSE(parse({"--jobs", "4294967296"}, error).has_value());
    EXPECT_FALSE(parse({"--jobs= 4"}, error).has_value());
    EXPECT_FALSE(parse({"--jobs=4x"}, error).has_value());
}

TEST(BenchArgs, WholeValueParsing)
{
    std::uint64_t u = 0;
    EXPECT_TRUE(tpcp::parseAll("18446744073709551615", u));
    EXPECT_EQ(u, ~std::uint64_t(0));
    EXPECT_FALSE(tpcp::parseAll("18446744073709551616", u));
    EXPECT_FALSE(tpcp::parseAll("-1", u));
    EXPECT_FALSE(tpcp::parseAll("abc", u));
    EXPECT_FALSE(tpcp::parseAll("12abc", u));
    EXPECT_FALSE(tpcp::parseAll("", u));
    double d = 0.0;
    EXPECT_TRUE(tpcp::parseAll("-0.25", d));
    EXPECT_DOUBLE_EQ(d, -0.25);
    EXPECT_FALSE(tpcp::parseAll("0.1x", d));
    EXPECT_FALSE(tpcp::parseAll("inf", d));
    EXPECT_FALSE(tpcp::parseAll("nan", d));
}

TEST(BenchArgsDeathTest, MalformedTypedValueExitsTwo)
{
    // --scrub-every=abc used to run silently with a period of 0.
    std::string error;
    auto args = parse({"--budgets=abc"}, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_EXIT(args->getU64("budgets", 0), testing::ExitedWithCode(2),
                "error: --budgets wants a non-negative integer, got "
                "'abc'");
    EXPECT_EXIT(args->getDouble("budgets", 0.0),
                testing::ExitedWithCode(2),
                "error: --budgets wants a finite number, got 'abc'");
    auto negative = parse({"--budgets=-3"}, error);
    ASSERT_TRUE(negative.has_value());
    EXPECT_EXIT(negative->getU64("budgets", 0),
                testing::ExitedWithCode(2), "got '-3'");
}

TEST(BenchArgsDeathTest, MalformedListElementExitsTwo)
{
    // The CSV lists of adversarial_sweep (--seeds) and fault_sweep
    // (--rates) parse every element the same way.
    std::vector<double> rates;
    for (const std::string &s : splitCsv("0.01,0.05"))
        rates.push_back(parseDouble("rates", s));
    EXPECT_EQ(rates, (std::vector<double>{0.01, 0.05}));
    EXPECT_EXIT(parseDouble("rates", "0.1x"),
                testing::ExitedWithCode(2), "error: --rates ");
    EXPECT_EXIT(parseU64("seeds", "-1"), testing::ExitedWithCode(2),
                "error: --seeds ");
}

TEST(Cli, PositionalsKeepTheirOrderAroundFlags)
{
    std::string error;
    auto args = parse({"mcf", "--budgets", "8", "gcc/1", "--jobs=2",
                       "ammp"},
                      error, 3);
    ASSERT_TRUE(args.has_value()) << error;
    EXPECT_EQ(args->positional,
              (std::vector<std::string>{"mcf", "gcc/1", "ammp"}));
    EXPECT_EQ(args->get("budgets", ""), "8");
    EXPECT_EQ(args->jobs, 2u);
}

TEST(Cli, SwitchBeforeAPositionalLeavesItPositional)
{
    // `classify --timeline mcf`: a switch never takes a value.
    std::string error;
    auto args = parse({"--verbose", "mcf"}, error, 1);
    ASSERT_TRUE(args.has_value()) << error;
    EXPECT_TRUE(args->has("verbose"));
    EXPECT_EQ(args->get("verbose", "x"), "");
    EXPECT_EQ(args->positional, (std::vector<std::string>{"mcf"}));
}

TEST(Cli, PositionalsBeyondTheDeclaredCountAreRejected)
{
    std::string error;
    EXPECT_TRUE(parse({"mcf"}, error, 1).has_value());
    EXPECT_FALSE(parse({"mcf", "gcc/1"}, error, 1).has_value());
    EXPECT_NE(error.find("unknown argument 'gcc/1'"),
              std::string::npos)
        << error;
}

TEST(Cli, ValueFlagTakesTheNextArgumentEvenIfItLooksLikeAFlag)
{
    std::string error;
    auto args = parse({"--budgets", "-", "--verbose"}, error);
    ASSERT_TRUE(args.has_value()) << error;
    EXPECT_EQ(args->get("budgets", ""), "-");
    EXPECT_TRUE(args->has("verbose"));
}

TEST(Cli, JobsIsBoundedByTheThreadCap)
{
    // Parsing alone rejects it: no thread is ever started.
    std::string error;
    auto ok = parse({"--jobs=" + std::to_string(kMaxThreads)}, error);
    ASSERT_TRUE(ok.has_value()) << error;
    EXPECT_EQ(ok->jobs, kMaxThreads);
    EXPECT_FALSE(
        parse({"--jobs=" + std::to_string(kMaxThreads + 1)}, error)
            .has_value());
    EXPECT_NE(error.find("--jobs"), std::string::npos) << error;
}

TEST(Cli, UndeclaredJobsIsUnknown)
{
    // Front ends that start no threads do not declare --jobs.
    std::string error;
    EXPECT_FALSE(tryParseArgs({"--jobs=2"}, {}, error).has_value());
    EXPECT_NE(error.find("unknown argument '--jobs=2'"),
              std::string::npos)
        << error;
}

TEST(CliDeathTest, HelpExitsZeroWhereverItStands)
{
    EXPECT_EXIT(parseArgs({"mcf", "--help"}, kExtras, "tool", 1),
                testing::ExitedWithCode(0), "");
    EXPECT_EXIT(parseArgs({"--bogus", "-h"}, kExtras, "tool", 0),
                testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, UsageErrorExitsTwo)
{
    EXPECT_EXIT(parseArgs({"--max-eror=0.2"}, kExtras, "tool", 0),
                testing::ExitedWithCode(2),
                "error: unknown argument '--max-eror=0.2'");
    EXPECT_EXIT(parseU64("producers", "257", kMaxThreads),
                testing::ExitedWithCode(2),
                "error: --producers wants a non-negative integer up to "
                "256, got '257'");
}

TEST(Cli, WriteJsonHonorsPathDefaultAndDash)
{
    const std::string path = testing::TempDir() + "cli_write.json";
    std::remove(path.c_str());
    std::string error;
    std::ostringstream log;

    auto off = tryParseArgs({"--json=-"}, {jsonFlag("x", "")}, error);
    ASSERT_TRUE(off.has_value());
    EXPECT_TRUE(writeJson(*off, "{}", "1 row", path, log));
    EXPECT_TRUE(log.str().empty());
    EXPECT_FALSE(std::ifstream(path).good());

    auto none = tryParseArgs({}, {jsonFlag("x", "")}, error);
    ASSERT_TRUE(none.has_value());
    EXPECT_TRUE(writeJson(*none, "{}", "1 row", "", log));
    EXPECT_TRUE(log.str().empty());

    EXPECT_TRUE(writeJson(*none, "{\"a\": 1}", "1 row", path, log, "\n"));
    EXPECT_EQ(log.str(), "\nwrote 1 row to " + path + "\n");
    std::ifstream in(path);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(body, "{\"a\": 1}");

    log.str("");
    auto given =
        tryParseArgs({"--json", path}, {jsonFlag("x", "")}, error);
    ASSERT_TRUE(given.has_value());
    EXPECT_TRUE(writeJson(*given, "{}", "", "other.json", log));
    EXPECT_EQ(log.str(), "wrote " + path + "\n");
    std::remove(path.c_str());

    auto bad = tryParseArgs({"--json=/nonexistent-dir/x.json"},
                            {jsonFlag("x", "")}, error);
    ASSERT_TRUE(bad.has_value());
    testing::internal::CaptureStderr();
    EXPECT_FALSE(writeJson(*bad, "{}", "1 row", "", log));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "error: cannot write /nonexistent-dir/x.json"),
              std::string::npos);
}

TEST(Cli, CheckBoundPrintsTheVerdictBothWays)
{
    const std::vector<FlagSpec> flags = {{"max-error", "X", ""},
                                         {"min-rate", "R", ""}};
    std::string error;
    auto args =
        tryParseArgs({"--max-error=0.2", "--min-rate=100"}, flags, error);
    ASSERT_TRUE(args.has_value());

    testing::internal::CaptureStdout();
    EXPECT_TRUE(checkBound(*args, {"max-error", "worst error", true},
                           0.1));
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "worst error 10% within --max-error 20%\n");

    testing::internal::CaptureStderr();
    EXPECT_FALSE(checkBound(*args, {"max-error", "worst error", true},
                            0.25));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "error: worst error 25% exceeds --max-error 20%\n");

    const Bound rate = {"min-rate", "rate", false, 1.0, " pkts/s", ""};
    testing::internal::CaptureStdout();
    EXPECT_TRUE(checkBound(*args, rate, 150));
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "rate 150 pkts/s meets --min-rate 100\n");
    testing::internal::CaptureStderr();
    EXPECT_FALSE(checkBound(*args, rate, 50));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "error: rate 50 pkts/s below --min-rate 100\n");

    // Absent flag: no check, no output.
    auto none = tryParseArgs({}, flags, error);
    ASSERT_TRUE(none.has_value());
    testing::internal::CaptureStdout();
    EXPECT_TRUE(checkBound(*none, rate, 0.0));
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

TEST(CliDeathTest, EmptyListIsAUsageErrorNamingTheFlag)
{
    std::string error;
    auto args = tryParseArgs({"--budgets=,,"}, kExtras, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_EXIT(args->getList("budgets", "8"), testing::ExitedWithCode(2),
                "error: --budgets expects at least one value");
    EXPECT_EXIT(args->getList("rates", ""), testing::ExitedWithCode(2),
                "error: --rates expects at least one value");
}

TEST(Cli, GetListSplitsTheValueOrTheDefault)
{
    std::string error;
    auto args = tryParseArgs({"--budgets=,8,,16"}, kExtras, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_EQ(args->getList("budgets", "1"),
              (std::vector<std::string>{"8", "16"}));
    EXPECT_EQ(args->getList("rates", "0.1,0.2"),
              (std::vector<std::string>{"0.1", "0.2"}));
}

namespace
{

std::string
writeFloorFile(const char *name, const std::string &body)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream(path) << body;
    return path;
}

} // namespace

TEST(Cli, ReadFloorsTakesKeysAndTheirColumns)
{
    const std::string path = writeFloorFile(
        "floors_ok.txt", "# comment\n\nphase-alias   0.45 0.95\n"
                         "oscillation 1 0.5e0\n");
    const auto floors = readFloors(path, 2);
    ASSERT_EQ(floors.size(), 2u);
    EXPECT_EQ(floors.at("phase-alias"), (std::vector<double>{0.45, 0.95}));
    EXPECT_EQ(floors.at("oscillation"), (std::vector<double>{1.0, 0.5}));
    std::remove(path.c_str());
}

TEST(Cli, ReadFloorsRejectsWhatTheHarnessesUsedToAccept)
{
    // An extra field and a repeated key both loaded before, the last
    // line winning; a floor file that says two things is an error.
    const std::string extra = writeFloorFile(
        "floors_extra.txt", "phase-alias 0.45 0.95 0.99 junk\n");
    EXPECT_THROW(readFloors(extra, 2), tpcp::Error);
    const std::string twice = writeFloorFile(
        "floors_twice.txt", "phase-alias 0.45 0.95\nphase-alias 0.99 "
                            "0.99\n");
    EXPECT_THROW(readFloors(twice, 2), tpcp::Error);
    const std::string few =
        writeFloorFile("floors_few.txt", "phase-alias 0.45\n");
    EXPECT_THROW(readFloors(few, 2), tpcp::Error);
    const std::string junk =
        writeFloorFile("floors_junk.txt", "phase-alias 0.45x 0.95\n");
    EXPECT_THROW(readFloors(junk, 2), tpcp::Error);
    EXPECT_THROW(readFloors(testing::TempDir() + "no_such_floors.txt", 1),
                 tpcp::Error);
    for (const std::string &p : {extra, twice, few, junk})
        std::remove(p.c_str());
}

TEST(Cli, CheckedInFloorFilesLoad)
{
    const std::string bench = std::string(TPCP_SOURCE_DIR) + "/bench/";
    const auto adversarial =
        readFloors(bench + "adversarial_floors.txt", 2);
    EXPECT_EQ(adversarial.size(), 4u);
    EXPECT_EQ(adversarial.at("phase-alias"),
              (std::vector<double>{0.45, 0.95}));
    const auto chaos = readFloors(bench + "chaos_floors.txt", 1);
    EXPECT_EQ(chaos.size(), 18u);
    EXPECT_EQ(chaos.at("fairness_resilient_jain"),
              (std::vector<double>{0.95}));
}
