#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

namespace {

/// A "Vm...:" field of /proc/self/status in MiB (NaN when absent).
double status_mib(const char* field) {
  std::ifstream f("/proc/self/status");
  const std::string key = std::string(field) + ":";
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream in(line.substr(key.size()));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return NAN;
}

}  // namespace

void reset_peak_rss() {
  {
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.close();
    if (!f) throw std::runtime_error("cannot reset VmHWM through /proc/self/clear_refs");
  }
  // Where the kernel ignores the reset, VmHWM keeps the peak of the whole
  // process, and rss_peak_mb would look valid while measuring setup too.
  const double hwm = status_mib("VmHWM");
  const double rss = status_mib("VmRSS");
  if (!(hwm <= rss + std::max(16.0, 0.05 * rss))) {
    throw std::runtime_error("VmHWM was not reset (VmHWM " + std::to_string(hwm) +
                             " MiB, VmRSS " + std::to_string(rss) + " MiB)");
  }
}

double peak_rss_mib() { return status_mib("VmHWM"); }

std::uint64_t llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::byte> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  if (!in) throw std::runtime_error("short read of " + path);
  return bytes;
}

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double SpanLog::Scope::stop() {
  if (duration_ < 0.0) {
    const double end = now_s();
    duration_ = end - start_;
    if (log_ != nullptr) {
      log_->records_[static_cast<std::size_t>(index_)].end = end;
      log_->open_.pop_back();
    }
  }
  return duration_;
}

SpanLog::Scope SpanLog::span(std::string name) {
  const double start = now_s();
  if (!enabled_) return Scope(nullptr, -1, start);
  const int index = static_cast<int>(records_.size());
  records_.push_back({std::move(name), start, start, open_.empty() ? -1 : open_.back()});
  open_.push_back(index);
  return Scope(this, index, start);
}

void SpanLog::write(const std::string& path) const {
  if (!enabled_) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  const double t0 = records_.empty() ? 0.0 : records_.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i ? "," : "", r.name.c_str(), (r.start - t0) * 1e6, (r.end - r.start) * 1e6, i,
                  r.parent);
    out << buf;
  }
  out << "]}\n";
}

void Ledger::add(const std::string& name, const std::string& unit, double value,
                 const std::string& ceiling, const std::string& note) {
  entries_.push_back({name, unit, value, ceiling, note});
}

void Ledger::print_table(const std::string& title) const {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-28s %16s %-14s %s\n", "metric", "value", "unit", "ceiling / note");
  for (const Entry& e : entries_) {
    std::string right;
    if (!e.ceiling.empty()) {
      for (const Entry& c : entries_) {
        if (c.name == e.ceiling) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "vs %s = %.4g %s", c.name.c_str(), c.value,
                        c.unit.c_str());
          right = buf;
        }
      }
    }
    if (!e.note.empty()) right += (right.empty() ? "" : "; ") + e.note;
    std::printf("%-28s %16.6g %-14s %s\n", e.name.c_str(), e.value, e.unit.c_str(),
                right.c_str());
  }
}

void Ledger::print_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  // A metric that could not be measured is printed as null, and the run is
  // not correct: a missing time must never read as a perfect one.
  for (const Entry& e : entries_) correct = correct && std::isfinite(e.value);
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[32] = "null";
    if (std::isfinite(e.value)) std::snprintf(value, sizeof value, "%.17g", e.value);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i ? ", " : "", e.name.c_str(), value, e.unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
