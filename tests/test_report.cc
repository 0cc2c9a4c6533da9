/**
 * @file
 * Tests for the JSON result export.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "format_sample.hh"
#include "metrics/json.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace kagura
{
namespace
{

struct ReportTests : testing::Test
{
    ReportTests() { informEnabled = false; }
};

TEST_F(ReportTests, ContainsTheHeadlineFields)
{
    Simulator sim(baselineConfig("crc32"));
    const SimResult r = sim.run();
    const std::string json = toJson(r);
    for (const char *field :
         {"\"workload\":\"crc32\"", "\"wall_cycles\":",
          "\"committed_instructions\":", "\"power_failures\":",
          "\"energy_pj\":", "\"icache\":", "\"dcache\":",
          "\"kagura\":", "\"total\":"}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
    // Per-cycle array only on request.
    EXPECT_EQ(json.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(toJson(r, true).find("\"cycles\":["), std::string::npos);
}

TEST_F(ReportTests, BalancedBracesAndQuotes)
{
    Simulator sim(accKaguraConfig("crc32"));
    const std::string json = toJson(sim.run(), true);
    int depth = 0;
    std::size_t quotes = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        else if (c == '"')
            ++quotes;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(quotes % 2, 0u);
}

TEST_F(ReportTests, NumbersMatchTheResult)
{
    Simulator sim(baselineConfig("crc32"));
    const SimResult r = sim.run();
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"committed_instructions\":" +
                        std::to_string(r.committedInstructions)),
              std::string::npos);
    EXPECT_NE(json.find("\"power_failures\":" +
                        std::to_string(r.powerFailures)),
              std::string::npos);
}

TEST_F(ReportTests, WorkloadNameIsEscaped)
{
    SimResult r;
    r.workload = "mi\"ni\\x\n";
    const std::string json = toJson(r, true);
    metrics::json::Value doc;
    std::string error;
    ASSERT_TRUE(metrics::json::parse(json, doc, &error)) << error << json;
    const metrics::json::Value *name = doc.find("workload");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->str, r.workload);
}

TEST_F(ReportTests, WriteJsonEndsWithNewline)
{
    Simulator sim(baselineConfig("crc32"));
    const SimResult r = sim.run();
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    writeJson(r, tmp);
    std::fseek(tmp, -1, SEEK_END);
    EXPECT_EQ(std::fgetc(tmp), '\n');
    std::fclose(tmp);
}

// tests/data/result_format.txt pins every byte a result counter
// reaches: the encoding's FNV-1a, the JSON text and the metric export
// of formatSampleResult(). Recapture with `capture_goldens format`
// only for an intentional format change.
TEST_F(ReportTests, ResultFormatMatchesTheCapturedGolden)
{
    std::ifstream in(std::string(KAGURA_TEST_DATA_DIR) +
                     "/result_format.txt");
    ASSERT_TRUE(in) << "missing result_format.txt";
    std::istringstream live(resultFormatGolden());
    std::string want;
    std::string got;
    for (unsigned line = 1; std::getline(in, want); ++line) {
        ASSERT_TRUE(std::getline(live, got)) << "live text ends at line "
                                             << line;
        ASSERT_EQ(got, want) << "result_format.txt line " << line;
    }
    EXPECT_FALSE(std::getline(live, got)) << "extra live line: " << got;
}

} // namespace
} // namespace kagura
