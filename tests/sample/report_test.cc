/**
 * @file
 * Unit tests for SampleReport JSON serialization and the end-to-end
 * runSampledSimulation wrapper.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "sample/report.hh"
#include "sample_test_util.hh"

using namespace tpcp;
using namespace tpcp::sample;
using sample_test::Cell;
using sample_test::makeProfile;
using sample_test::phasesOf;

namespace
{

SampleReport
sampleReport()
{
    SampleReport r;
    r.workload = "gcc/1";
    r.selector = "stratified";
    r.phaseSource = "online";
    r.budget = 8;
    r.sampled = 7;
    r.totalIntervals = 100;
    r.phasesTotal = 5;
    r.phasesCovered = 4;
    r.trueCpi = 1.5;
    r.estimatedCpi = 1.53;
    r.relError = 0.02;
    return r;
}

std::vector<Cell>
mixedCells()
{
    std::vector<Cell> cells;
    for (std::size_t i = 0; i < 50; ++i)
        // Wiggle period 3 is coprime to the bit-reversal sampling
        // stride, so even a two-member pilot sees CPI spread.
        cells.push_back({static_cast<PhaseId>(i % 2 + 1),
                         1.0 + static_cast<double>(i % 2) +
                             0.05 * static_cast<double>(i % 3)});
    return cells;
}

} // namespace

TEST(Report, JsonHasStableKeyOrderAndValues)
{
    std::string json = toJson(sampleReport());
    EXPECT_EQ(json.find("{\"workload\": \"gcc/1\""), 0u)
        << json;
    EXPECT_NE(json.find("\"selector\": \"stratified\""),
              std::string::npos);
    EXPECT_NE(json.find("\"budget\": 8"), std::string::npos);
    EXPECT_NE(json.find("\"true_cpi\": 1.5"), std::string::npos);
    EXPECT_NE(json.find("\"sampled_fraction\": 0.07"),
              std::string::npos);
    // speedup = 100/7; the last field carries no trailing comma.
    EXPECT_NE(json.find("\"speedup_equivalent\": 14.28571429}"),
              std::string::npos)
        << json;
    std::size_t wk = json.find("\"workload\"");
    std::size_t sel = json.find("\"selector\"");
    std::size_t spd = json.find("\"speedup_equivalent\"");
    EXPECT_LT(wk, sel);
    EXPECT_LT(sel, spd);
}

TEST(Report, JsonEscapesStrings)
{
    SampleReport r = sampleReport();
    r.workload = "we\"ird\\name\n";
    std::string json = toJson(r);
    EXPECT_NE(json.find("\"we\\\"ird\\\\name\\n\""),
              std::string::npos)
        << json;
}

TEST(Report, JsonIsPinnedByteForByte)
{
    SampleReport r = sampleReport();
    r.workload = "a\"b\\c\n";
    r.standardError = 0.01;
    r.jackknifeSe = 0.0125;
    r.ciLow = -0.5;
    r.ciHigh = 3.5;
    r.predictedRelError = 1.0 / 3.0;
    EXPECT_EQ(toJson(r),
              "{\"workload\": \"a\\\"b\\\\c\\n\", "
              "\"selector\": \"stratified\", "
              "\"phase_source\": \"online\", \"budget\": 8, "
              "\"sampled\": 7, \"total_intervals\": 100, "
              "\"phases_total\": 5, \"phases_covered\": 4, "
              "\"true_cpi\": 1.5, \"estimated_cpi\": 1.53, "
              "\"rel_error\": 0.02, \"standard_error\": 0.01, "
              "\"jackknife_se\": 0.0125, \"ci_low\": -0.5, "
              "\"ci_high\": 3.5, "
              "\"predicted_rel_error\": 0.3333333333, "
              "\"sampled_fraction\": 0.07, "
              "\"speedup_equivalent\": 14.28571429}");
}

TEST(Report, JsonArrayShape)
{
    EXPECT_EQ(toJson(std::vector<SampleReport>{}), "[\n]\n");
    const std::string one = toJson(sampleReport());
    EXPECT_EQ(toJson(std::vector<SampleReport>{sampleReport(),
                                               sampleReport()}),
              "[\n  " + one + ",\n  " + one + "\n]\n");
    std::string two =
        toJson(std::vector<SampleReport>{sampleReport(),
                                         sampleReport()});
    EXPECT_EQ(two.rfind("[\n", 0), 0u);
    EXPECT_EQ(two.substr(two.size() - 4), "}\n]\n")
        << "no comma after the final element";
    EXPECT_NE(two.find("},\n"), std::string::npos)
        << "elements are comma-separated, one per line";
}

TEST(Report, WriteJsonRoundTripsThroughAFile)
{
    std::vector<SampleReport> reports = {sampleReport()};
    std::string path = "report_test_tmp.json";
    ASSERT_TRUE(writeJsonFile(path, toJson(reports)));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), toJson(reports));
    std::remove(path.c_str());
}

TEST(Report, WriteJsonFailsCleanlyOnBadPath)
{
    EXPECT_FALSE(writeJsonFile("/nonexistent-dir/x/y.json",
                               toJson(std::vector<SampleReport>{})));
}

TEST(Report, RunSampledSimulationFillsEveryField)
{
    auto cells = mixedCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SampleReport r = runSampledSimulation(
        profile, phases, "stratified", PhaseSource::Online, 10);
    EXPECT_EQ(r.workload, "synthetic");
    EXPECT_EQ(r.selector, "stratified");
    EXPECT_EQ(r.phaseSource, "online");
    EXPECT_EQ(r.budget, 10u);
    EXPECT_LE(r.sampled, 10u);
    EXPECT_GT(r.sampled, 0u);
    EXPECT_EQ(r.totalIntervals, cells.size());
    EXPECT_EQ(r.phasesTotal, 2u);
    EXPECT_EQ(r.phasesCovered, 2u);
    EXPECT_NEAR(r.trueCpi, sample_test::trueCpiOf(cells), 1e-12);
    EXPECT_NEAR(r.relError,
                std::abs(r.estimatedCpi - r.trueCpi) / r.trueCpi,
                1e-12);
    EXPECT_GT(r.predictedRelError, 0.0)
        << "the stratified selector reports its planner prediction";
    EXPECT_LE(r.ciLow, r.estimatedCpi);
    EXPECT_GE(r.ciHigh, r.estimatedCpi);
}

TEST(Report, NonPlanningSelectorsPredictNothing)
{
    auto cells = mixedCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    SampleReport r = runSampledSimulation(
        profile, phases, "uniform", PhaseSource::Online, 10);
    EXPECT_EQ(r.predictedRelError, 0.0);
}

TEST(Report, RunSampledSimulationIsDeterministic)
{
    auto cells = mixedCells();
    trace::IntervalProfile profile = makeProfile(cells);
    std::vector<PhaseId> phases = phasesOf(cells);
    for (const char *sel :
         {"first", "centroid", "stratified", "uniform", "random"}) {
        SampleReport a = runSampledSimulation(
            profile, phases, sel, PhaseSource::Online, 8);
        SampleReport b = runSampledSimulation(
            profile, phases, sel, PhaseSource::Online, 8);
        EXPECT_EQ(toJson(a), toJson(b)) << sel;
    }
}
