/**
 * @file
 * Unit tests for the shared JSON writer: string escaping, the %.10g
 * number format, field separators and the one-record-per-line array.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

using namespace tpcp;

namespace json_test
{

struct Record
{
    std::uint32_t id = 0;
};

std::string
toJson(const Record &r)
{
    std::string out = "{";
    appendField(out, "id", r.id, true);
    out += '}';
    return out;
}

} // namespace json_test

TEST(Json, EscapesQuotesBackslashesAndControlCharacters)
{
    std::string out;
    appendEscaped(out, "a\"b\\c\nd\te\x01\x1f\x7f");
    EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\\u001f\x7f\"");
}

TEST(Json, NumbersKeepTenSignificantDigits)
{
    std::string out;
    appendNumber(out, 1.0 / 3.0);
    out += ' ';
    appendNumber(out, -0.25);
    out += ' ';
    appendNumber(out, 1e-12);
    out += ' ';
    appendNumber(out, 1600.0);
    EXPECT_EQ(out, "0.3333333333 -0.25 1e-12 1600");
}

TEST(Json, FieldsAreSeparatedUntilTheLast)
{
    std::string out = "{";
    appendField(out, "s", std::string("x"));
    appendField(out, "d", 0.5);
    appendField(out, "u32", std::uint32_t{7});
    appendField(out, "size", std::size_t{8});
    appendField(out, "b", false);
    appendField(out, "u64", ~std::uint64_t{0}, true);
    out += '}';
    EXPECT_EQ(out, "{\"s\": \"x\", \"d\": 0.5, \"u32\": 7, "
                   "\"size\": 8, \"b\": false, "
                   "\"u64\": 18446744073709551615}");
}

TEST(Json, ReportListIsOneRecordPerLine)
{
    using json_test::Record;
    EXPECT_EQ(toJsonLines(std::vector<Record>{}), "[\n]\n");
    EXPECT_EQ(toJsonLines(std::vector<Record>{{1}}),
              "[\n  {\"id\": 1}\n]\n");
    EXPECT_EQ(toJsonLines(std::vector<Record>{{1}, {2}}),
              "[\n  {\"id\": 1},\n  {\"id\": 2}\n]\n");
}

TEST(Json, WriteFileFailsCleanlyOnBadPath)
{
    EXPECT_FALSE(writeJsonFile("/nonexistent-dir/x/y.json", "[\n]\n"));
}
