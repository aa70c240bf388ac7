// Measurement plumbing for the DOoC real-engine benchmark: clocks, process
// CPU and peak-RSS probes, order statistics, benchmark-side spans and the
// metric ledger that prints the human table and the one-line JSON result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock seconds since an arbitrary epoch.
[[nodiscard]] double now_s();
/// Process user + system CPU seconds (getrusage, every thread).
[[nodiscard]] double process_cpu_s();
/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS. Throws
/// std::runtime_error when the kernel does not support or ignored the reset.
void reset_peak_rss();
/// VmHWM in MiB.
[[nodiscard]] double peak_rss_mib();
/// Size of the last-level cache in bytes as the kernel reports it (0 when
/// unknown).
[[nodiscard]] std::uint64_t llc_bytes();

/// Whole file contents; throws std::runtime_error when it cannot be read.
[[nodiscard]] std::vector<std::byte> read_file(const std::string& path);

/// Median; NaN for an empty sample.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Benchmark-side spans around calls into the library. Kept in memory and
/// written as Chrome trace JSON at exit. Single-threaded: only the main
/// thread opens spans. A disabled log still times (Scope::stop returns the
/// duration) but records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog* log, int index, double start) : log_(log), index_(index), start_(start) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { stop(); }
    /// End the span (idempotent) and return its duration in seconds.
    double stop();

   private:
    SpanLog* log_;
    int index_;
    double start_;
    double duration_ = -1.0;
  };

  [[nodiscard]] Scope span(std::string name);
  void write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  bool enabled_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// Every metric of one run, in print order.
class Ledger {
 public:
  /// `ceiling` names the metric this rate is compared against (printed
  /// beside it); `note` is free text (sizes, "computed", ...).
  void add(const std::string& name, const std::string& unit, double value,
           const std::string& ceiling = {}, const std::string& note = {});
  /// Human-readable table on stdout.
  void print_table(const std::string& title) const;
  /// The machine-readable result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  /// A non-finite metric is printed as null and makes the run not correct.
  void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name, unit;
    double value = 0.0;
    std::string ceiling, note;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
