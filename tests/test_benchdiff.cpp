// Tests for the bench regression gate: the JsonReport writer's
// schema_version round-trip through the in-tree JSON parser, metric
// direction classification, and diff_reports' regression and failed-gate
// verdicts — including the file-level round-trip dooc_benchdiff performs.
#include <gtest/gtest.h>

#include <string>

#include "bench_util.hpp"
#include "common/benchdiff.hpp"
#include "common/json.hpp"
#include "test_util.hpp"

namespace dooc {
namespace {

using bench::Direction;

/// A minimal two-record report, with one knob to regress.
std::string report_json(double seconds, double gflops) {
  bench::JsonReport report;
  report.meta("bench", "unit");
  report.add_record()
      .field("name", "spmv")
      .field("format", "csr")
      .field("seconds", seconds)
      .field("gflops", gflops);
  report.add_record().field("name", "reduce").field("seconds", 0.5);
  testutil::TempDir dir("benchdiff_json");
  const std::string path = dir.str() + "/r.json";
  EXPECT_TRUE(report.write(path));
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  return text;
}

TEST(JsonReport, WritesSchemaVersionAndParsesBack) {
  const std::string text = report_json(1.0, 2.0);
  const json::Value doc = json::parse(text);
  const json::Value* ver = doc.find("schema_version");
  ASSERT_NE(ver, nullptr);
  EXPECT_DOUBLE_EQ(ver->number, static_cast<double>(bench::JsonReport::kSchemaVersion));
  const json::Value* records = doc.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_TRUE(records->is_array());
  ASSERT_EQ(records->array.size(), 2u);
  const json::Value* secs = records->array[0].find("seconds");
  ASSERT_NE(secs, nullptr);
  EXPECT_DOUBLE_EQ(secs->number, 1.0);
  const json::Value* fmt = records->array[0].find("format");
  ASSERT_NE(fmt, nullptr);
  EXPECT_EQ(fmt->str, "csr");
}

TEST(BenchDiff, ClassifiesMetricDirectionsByName) {
  EXPECT_EQ(bench::classify_metric("seconds"), Direction::LowerBetter);
  EXPECT_EQ(bench::classify_metric("wall_time"), Direction::LowerBetter);
  EXPECT_EQ(bench::classify_metric("makespan"), Direction::LowerBetter);
  EXPECT_EQ(bench::classify_metric("wall_s"), Direction::LowerBetter);
  EXPECT_EQ(bench::classify_metric("critical_s"), Direction::LowerBetter);
  EXPECT_EQ(bench::classify_metric("gflops"), Direction::HigherBetter);
  EXPECT_EQ(bench::classify_metric("read_bandwidth"), Direction::HigherBetter);
  EXPECT_EQ(bench::classify_metric("overlap"), Direction::HigherBetter);
  EXPECT_EQ(bench::classify_metric("iterations"), Direction::Unknown);
}

TEST(BenchDiff, IdenticalReportsShowNoRegression) {
  const std::string a = report_json(1.0, 2.0);
  const auto result = bench::diff_reports(a, a, {});
  EXPECT_FALSE(result.regression);
  EXPECT_EQ(result.regressions(), 0u);
  EXPECT_EQ(result.deltas.size(), 3u);  // seconds+gflops, seconds
  EXPECT_TRUE(result.notes.empty());
}

TEST(BenchDiff, SlowdownPastThresholdGates) {
  const auto result = bench::diff_reports(report_json(1.0, 2.0), report_json(1.5, 2.0), {});
  EXPECT_TRUE(result.regression);
  ASSERT_EQ(result.regressions(), 1u);
  for (const auto& d : result.deltas) {
    if (d.regression) {
      EXPECT_EQ(d.metric, "seconds");
      EXPECT_NEAR(d.change_pct, 50.0, 1e-9);
    }
  }
  // The same delta under a looser threshold passes.
  bench::DiffOptions loose;
  loose.threshold_pct = 60.0;
  EXPECT_FALSE(bench::diff_reports(report_json(1.0, 2.0), report_json(1.5, 2.0), loose).regression);
}

TEST(BenchDiff, ThroughputDropGatesAndImprovementDoesNot) {
  // gflops is higher-better: a 50% drop regresses, a 50% gain does not.
  EXPECT_TRUE(bench::diff_reports(report_json(1.0, 2.0), report_json(1.0, 1.0), {}).regression);
  EXPECT_FALSE(bench::diff_reports(report_json(1.0, 2.0), report_json(1.0, 3.0), {}).regression);
  // A large speedup (seconds halved) is an improvement, never a regression.
  EXPECT_FALSE(bench::diff_reports(report_json(1.0, 2.0), report_json(0.5, 2.0), {}).regression);
}

TEST(BenchDiff, OverridesAndIgnoresWin) {
  bench::DiffOptions opts;
  opts.ignore = {"seconds"};
  EXPECT_FALSE(bench::diff_reports(report_json(1.0, 2.0), report_json(9.0, 2.0), opts).regression);
  // Force "gflops" lower-better: now the gain regresses.
  bench::DiffOptions flip;
  flip.lower_better = {"gflops"};
  EXPECT_TRUE(bench::diff_reports(report_json(1.0, 2.0), report_json(1.0, 3.0), flip).regression);
}

TEST(BenchDiff, UnmatchedRecordsAndMetricsAreNotedNotGated) {
  bench::JsonReport after;
  after.add_record().field("name", "spmv").field("format", "csr").field("seconds", 1.0).field(
      "new_metric", 7.0);
  after.add_record().field("name", "brand_new").field("seconds", 1.0);
  testutil::TempDir dir("benchdiff_notes");
  const std::string path = dir.str() + "/after.json";
  ASSERT_TRUE(after.write(path));
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  const auto result = bench::diff_reports(report_json(1.0, 2.0), text, {});
  EXPECT_FALSE(result.regression);
  // Three notes: the after-only metric, the after-only record, the
  // before-only record ("reduce").
  EXPECT_EQ(result.notes.size(), 3u);
}

TEST(BenchDiff, FileRoundTripMatchesInMemoryDiff) {
  testutil::TempDir dir("benchdiff_files");
  bench::JsonReport before;
  before.add_record().field("name", "spmv").field("seconds", 1.0);
  bench::JsonReport after;
  after.add_record().field("name", "spmv").field("seconds", 2.0);
  const std::string bpath = dir.str() + "/before.json";
  const std::string apath = dir.str() + "/after.json";
  ASSERT_TRUE(before.write(bpath));
  ASSERT_TRUE(after.write(apath));
  const auto result = bench::diff_report_files(bpath, apath, {});
  EXPECT_TRUE(result.regression);
  const std::string table = bench::format_diff(result, 10.0);
  EXPECT_NE(table.find("REGRESSION"), std::string::npos);
  EXPECT_NE(table.find("name=spmv"), std::string::npos);
}

TEST(BenchDiff, TopLevelFailedGateFailsTheDiff) {
  const std::string ok = R"({"schema_version": 2, "blame_shift_ok": 1, "records": []})";
  const std::string failed = R"({"schema_version": 2, "blame_shift_ok": 0, "records": []})";
  EXPECT_FALSE(bench::diff_reports(ok, ok, {}).regression);
  // A failed baseline is no baseline, and a failed run is no pass — even
  // when the two agree exactly.
  const auto bad_baseline = bench::diff_reports(failed, ok, {});
  EXPECT_TRUE(bad_baseline.regression);
  ASSERT_EQ(bad_baseline.failed_gates.size(), 1u);
  EXPECT_EQ(bad_baseline.failed_gates[0], "before: blame_shift_ok");
  const auto bad_run = bench::diff_reports(failed, failed, {});
  EXPECT_TRUE(bad_run.regression);
  EXPECT_EQ(bad_run.failed_gates.size(), 2u);
  EXPECT_NE(bench::format_diff(bad_run, 10.0).find("FAILED GATE"), std::string::npos);
}

TEST(BenchDiff, RecordFailedGateFailsTheDiffEvenWhenIgnored) {
  const std::string ok = R"({"records": [{"scenario": "parity", "parity_ok": 1}]})";
  const std::string failed = R"({"records": [{"scenario": "parity", "parity_ok": 0}]})";
  bench::DiffOptions opts;
  opts.ignore = {"parity_ok"};
  opts.threshold_pct = 1000.0;
  EXPECT_FALSE(bench::diff_reports(ok, ok, opts).regression);
  const auto result = bench::diff_reports(ok, failed, opts);
  EXPECT_TRUE(result.regression);
  ASSERT_EQ(result.failed_gates.size(), 1u);
  EXPECT_EQ(result.failed_gates[0], "after: [scenario=parity] parity_ok");
}

TEST(BenchDiff, MalformedInputThrows) {
  EXPECT_THROW(bench::diff_reports("{}", "{}", {}), std::runtime_error);
  EXPECT_THROW(bench::diff_reports("not json", "{\"records\":[]}", {}), std::runtime_error);
}

}  // namespace
}  // namespace dooc
