// Diff two bench_util JsonReport artifacts (BENCH_*.json): match records
// by their string-field identity, compute per-metric deltas, and decide —
// against a configurable threshold — whether the change is a regression.
// This is the gate that stops bench numbers from being write-only: CI runs
// a bench, diffs against a checked-in baseline, and fails on regression.
//
// Which direction is "worse" comes from name heuristics (seconds/time →
// lower is better, gflops/bandwidth/overlap → higher is better), each
// overridable per metric from the command line; metrics with no known
// direction are reported but never gate. Acceptance booleans (numeric
// `*_ok` fields) equal to 0 in either report always fail the diff.
#pragma once

#include <string>
#include <vector>

namespace dooc::bench {

enum class Direction { LowerBetter, HigherBetter, Unknown };

struct DiffOptions {
  double threshold_pct = 10.0;  ///< worse by more than this → regression
  std::vector<std::string> lower_better;   ///< metric-name overrides
  std::vector<std::string> higher_better;
  std::vector<std::string> ignore;         ///< metrics to skip entirely
};

struct MetricDelta {
  std::string record;  ///< identity of the record ("k=v k=v" string fields)
  std::string metric;
  double before = 0.0;
  double after = 0.0;
  double change_pct = 0.0;  ///< (after - before) / |before| * 100
  Direction direction = Direction::Unknown;
  bool regression = false;
};

struct DiffResult {
  std::vector<MetricDelta> deltas;
  std::vector<std::string> notes;  ///< unmatched records, schema drift, ...
  /// Acceptance booleans (numeric `*_ok` fields) equal to 0 in either
  /// report, top-level or inside a record ("after: [scenario=x] parity_ok").
  std::vector<std::string> failed_gates;
  bool regression = false;  ///< a metric regressed or a gate failed

  [[nodiscard]] std::size_t regressions() const {
    std::size_t n = 0;
    for (const auto& d : deltas) n += d.regression ? 1 : 0;
    return n;
  }
};

/// Heuristic direction for a metric name, before overrides.
Direction classify_metric(const std::string& name);

/// Diff two JsonReport documents given as JSON text. Any numeric `*_ok`
/// field equal to 0 in either document fails the diff, whatever the
/// thresholds: a report with a failed acceptance boolean is neither a
/// valid baseline nor a passing run. Throws
/// std::runtime_error on unparseable input or a document with no
/// "records" array.
DiffResult diff_reports(const std::string& before_json, const std::string& after_json,
                        const DiffOptions& options = {});

/// Same, reading both files. Throws on I/O errors.
DiffResult diff_report_files(const std::string& before_path, const std::string& after_path,
                             const DiffOptions& options = {});

/// Human-readable table of the result.
std::string format_diff(const DiffResult& result, double threshold_pct);

}  // namespace dooc::bench
