/**
 * @file
 * Unit tests for the shared benchmark-harness argument parser: a
 * typo like --job=4 must fail loudly with the valid options listed,
 * not silently fall back to a serial sweep.
 */

#include <gtest/gtest.h>

#include "bench_common.hh"

using namespace tpcp::bench;

namespace
{

const std::vector<FlagSpec> kExtras = {
    {"budgets", true, "comma-separated sample budgets"},
    {"verbose", false, "chatty output"},
};

std::optional<BenchArgs>
parse(const std::vector<std::string> &argv, std::string &error)
{
    return tryParseArgs(argv, kExtras, error);
}

} // namespace

TEST(BenchArgs, EmptyArgvGivesDefaults)
{
    std::string error;
    auto args = parse({}, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_EQ(args->jobs, 0u);
    EXPECT_TRUE(args->extra.empty());
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
        rates.push_back(parseFlagValue<double>("rates", s));
    EXPECT_EQ(rates, (std::vector<double>{0.01, 0.05}));
    EXPECT_EXIT(parseFlagValue<double>("rates", "0.1x"),
                testing::ExitedWithCode(2), "error: --rates ");
    EXPECT_EXIT(parseFlagValue<std::uint64_t>("seeds", "-1"),
                testing::ExitedWithCode(2), "error: --seeds ");
}
