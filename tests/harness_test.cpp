/// Tests for the experiment harness: response series math (cumulative
/// curves, decade breakdowns), table formatting, and the workload runner.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "engine/database.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "test_support.h"

namespace holix {
namespace {

using ReportCsvTest = test::TempDirTest;

TEST_F(ReportCsvTest, SaveCsvRoundTripsCellsAndQuoting) {
  ReportTable table("t");
  table.SetHeader({"name", "value"});
  table.AddRow({"plain", "1"});
  table.AddRow({"comma,cell", "quote\"cell"});
  const auto path = TempPath("table.csv");
  ASSERT_TRUE(table.SaveCsv(path.string()));
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(),
            "name,value\n"
            "plain,1\n"
            "\"comma,cell\",\"quote\"\"cell\"\n");
}

TEST_F(ReportCsvTest, SaveCsvFailsOnUnwritablePath) {
  ReportTable table("t");
  table.SetHeader({"a"});
  EXPECT_FALSE(table.SaveCsv((temp_dir() / "no_dir" / "x.csv").string()));
}

TEST_F(ReportCsvTest, SaveJsonEscapesAndStructures) {
  ReportTable table("fig \"x\"");
  table.SetHeader({"clients", "seconds"});
  table.AddRow({"1", "0.5"});
  table.AddRow({"quote\"cell", "line\nbreak"});
  const auto path = TempPath("table.json");
  ASSERT_TRUE(table.SaveJson(path.string()));
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  const std::string s = got.str();
  EXPECT_NE(s.find("\"title\": \"fig \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(s.find("\"generated_unix\": "), std::string::npos);
  EXPECT_NE(s.find("[\"clients\", \"seconds\"]"), std::string::npos);
  EXPECT_NE(s.find("[\"1\", \"0.5\"]"), std::string::npos);
  EXPECT_NE(s.find("\"quote\\\"cell\""), std::string::npos);
  EXPECT_NE(s.find("\"line\\nbreak\""), std::string::npos);
}

TEST_F(ReportCsvTest, SaveJsonFailsOnUnwritablePath) {
  ReportTable table("t");
  table.SetHeader({"a"});
  EXPECT_FALSE(table.SaveJson((temp_dir() / "no_dir" / "x.json").string()));
}

TEST(ResponseSeries, TotalsAndCumulative) {
  ResponseSeries s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Total(), 10.0);
  EXPECT_DOUBLE_EQ(s.CumulativeAt(0), 0.0);
  EXPECT_DOUBLE_EQ(s.CumulativeAt(2), 3.0);
  EXPECT_DOUBLE_EQ(s.CumulativeAt(100), 10.0);  // clamped
}

TEST(ResponseSeries, DecadeBreakdown) {
  ResponseSeries s;
  for (int i = 0; i < 1000; ++i) s.Add(1.0);
  const auto b = s.DecadeBreakdown();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);    // query 1
  EXPECT_DOUBLE_EQ(b[1], 9.0);    // queries 2..10
  EXPECT_DOUBLE_EQ(b[2], 90.0);   // queries 11..100
  EXPECT_DOUBLE_EQ(b[3], 900.0);  // queries 101..1000
}

TEST(ResponseSeries, DecadeBreakdownPartial) {
  ResponseSeries s;
  for (int i = 0; i < 42; ++i) s.Add(0.5);
  const auto b = s.DecadeBreakdown();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b[0] + b[1] + b[2], 21.0);
}

TEST(ResponseSeries, LogSpacedCurveMarks) {
  ResponseSeries s;
  for (int i = 0; i < 1000; ++i) s.Add(1.0);
  const auto curve = s.LogSpacedCurve();
  std::vector<size_t> marks;
  for (const auto& [k, cum] : curve) {
    marks.push_back(k);
    EXPECT_DOUBLE_EQ(cum, static_cast<double>(k));
  }
  EXPECT_EQ(marks, (std::vector<size_t>{1, 2, 5, 10, 20, 50, 100, 200, 500,
                                        1000}));
}

TEST(ResponseSeries, LogSpacedCurveIncludesLastPoint) {
  ResponseSeries s;
  for (int i = 0; i < 37; ++i) s.Add(1.0);
  const auto curve = s.LogSpacedCurve();
  EXPECT_EQ(curve.back().first, 37u);
}

TEST(Report, FormatHelpers) {
  EXPECT_EQ(FormatSeconds(1.23456), "1.2346");
  EXPECT_EQ(FormatDouble(2.5, 1), "2.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(Report, TablePrintsWithoutCrashing) {
  ReportTable t("test table");
  t.SetHeader({"col1", "a-much-wider-column"});
  t.AddRow({"x", "y"});
  t.AddRow({"long-cell-value", "z"});
  t.Print();  // visual; just must not crash or leak
}

TEST(Runner, MakeAttributeNames) {
  const auto names = MakeAttributeNames(3);
  EXPECT_EQ(names, (std::vector<std::string>{"a0", "a1", "a2"}));
}

TEST(Runner, RunWorkloadCountsQueries) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  LoadUniformTable(db, "r", 2, 20000, 1 << 16, 5);

  WorkloadSpec spec;
  spec.num_queries = 25;
  spec.num_attributes = 2;
  spec.domain = 1 << 16;
  spec.selectivity = 0.01;
  const auto queries = GenerateWorkload(spec);
  const RunResult r = RunWorkload(db, "r", MakeAttributeNames(2), queries);
  EXPECT_EQ(r.series.size(), 25u);
  EXPECT_GT(r.result_checksum, 0u);
}

TEST(Runner, ConcurrentAndSequentialAgree) {
  WorkloadSpec spec;
  spec.num_queries = 40;
  spec.num_attributes = 2;
  spec.domain = 1 << 16;
  spec.selectivity = 0.01;
  const auto queries = GenerateWorkload(spec);

  uint64_t sequential_checksum;
  {
    DatabaseOptions opts;
    opts.mode = ExecMode::kAdaptive;
    Database db(opts);
    LoadUniformTable(db, "r", 2, 20000, 1 << 16, 6);
    sequential_checksum =
        RunWorkload(db, "r", MakeAttributeNames(2), queries).result_checksum;
  }
  {
    DatabaseOptions opts;
    opts.mode = ExecMode::kAdaptive;
    opts.user_threads = 2;
    Database db(opts);
    LoadUniformTable(db, "r", 2, 20000, 1 << 16, 6);
    const double wall = RunWorkloadConcurrentChecked(
                            db, "r", MakeAttributeNames(2), queries, 4)
                            .seconds;
    EXPECT_GT(wall, 0.0);
    // Re-running sequentially on the already-cracked database must agree.
    EXPECT_EQ(
        RunWorkload(db, "r", MakeAttributeNames(2), queries).result_checksum,
        sequential_checksum);
  }
}

}  // namespace
}  // namespace holix
