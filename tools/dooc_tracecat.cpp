// dooc_tracecat: summarize a Chrome trace written by the obs layer
// (DOOC_TRACE=out.json, --trace-out, or TraceSession::start).
//
// Reports per-category (phase) time, the I/O-vs-compute overlap fraction —
// the paper's headline metric — and the top-N slowest tasks. With flow
// events in the trace, --critical-path / --blame / --what-if run the
// obs::causal analysis; --metrics re-exports the trace's Counter samples
// in Prometheus text format.
//
// Usage:  dooc_tracecat trace.json [trace2.json ...] [--top=10] [--cat=task]
//                       [--critical-path] [--blame] [--what-if=io:0]
//                       [--metrics] [--job=ID]
//
// --job=ID narrows a multi-tenant trace to one job before any analysis:
// events tagged with a "job" arg keep only job ID's; untagged events
// (storage io spans, counter samples) are ambient and stay — so overlap,
// waits, critical path and blame come out per job.
//
// Several traces may be given at once — the per-process files a
// dooc_launch cluster writes (node0.json node1.json ...). Each file gets
// its own summary; --metrics merges every file's counter samples into one
// unified Prometheus export (samples stay distinguishable through their
// per-process node/pid label). The causal analyses need one process's
// flow graph and reject a multi-file invocation.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iterator>
#include <string>

#include "common/options.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_reader.hpp"

using namespace dooc;

namespace {

/// "--what-if=io:0" → ("io", 0.0). Returns false on a malformed value.
bool parse_what_if(const std::string& spec, std::pair<std::string, double>& out) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) return false;
  try {
    out.first = spec.substr(0, colon);
    out.second = std::stod(spec.substr(colon + 1));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// The single-trace report (phase table, overlap, waits, slowest events).
void report_one(const std::string& path, const std::vector<obs::ParsedEvent>& events,
                std::size_t top_n, const std::string& cat);

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::from_args(argc, argv);
  if (opts.positional().empty()) {
    std::fprintf(stderr,
                 "usage: dooc_tracecat <trace.json> [more.json ...] [--top=10] [--cat=task]\n"
                 "                     [--critical-path] [--blame] [--what-if=CAT:FACTOR]\n"
                 "                     [--metrics] [--job=ID]\n");
    return 2;
  }
  const std::vector<std::string>& paths = opts.positional();
  const auto top_n = static_cast<std::size_t>(opts.get_int("top", 10));
  const std::string cat = opts.get("cat", "task");
  const bool job_filter = opts.contains("job");
  const double job_id = static_cast<double>(opts.get_int("job", 0));

  obs::MetricsSnapshot merged;
  std::vector<obs::ParsedEvent> events;  // the last file's events (causal)
  bool first = true;
  for (const std::string& path : paths) {
    try {
      events = obs::load_chrome_trace(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dooc_tracecat: %s\n", e.what());
      return 1;
    }
    if (job_filter) {
      std::erase_if(events, [&](const obs::ParsedEvent& ev) {
        const auto it = ev.args.find("job");
        return it != ev.args.end() && it->second != job_id;
      });
    }
    merged.merge(obs::snapshot_from_trace(events));
    if (!first) std::printf("\n");
    first = false;
    report_one(path, events, top_n, cat);
  }

  const bool want_path = opts.contains("critical-path");
  const bool want_blame = opts.contains("blame");
  std::vector<std::pair<std::string, double>> what_ifs;
  if (opts.contains("what-if")) {
    std::pair<std::string, double> wi;
    if (!parse_what_if(opts.get("what-if"), wi)) {
      std::fprintf(stderr, "dooc_tracecat: --what-if wants CATEGORY:FACTOR (e.g. io:0)\n");
      return 2;
    }
    what_ifs.push_back(std::move(wi));
  }
  if (want_path || want_blame || !what_ifs.empty()) {
    if (paths.size() != 1) {
      std::fprintf(stderr,
                   "dooc_tracecat: the causal analyses follow one process's flow graph; "
                   "pass a single trace file\n");
      return 2;
    }
    const auto graph = obs::causal::CausalGraph::build(events);
    std::printf("\n%s", obs::causal::causal_report(graph, want_path, want_blame, what_ifs).c_str());
  }

  if (opts.contains("metrics")) {
    std::printf("\n== metrics (prometheus, %zu trace file%s) ==\n%s", paths.size(),
                paths.size() == 1 ? "" : "s", merged.to_prometheus().c_str());
  }
  return 0;
}

namespace {

void report_one(const std::string& path, const std::vector<obs::ParsedEvent>& events,
                std::size_t top_n, const std::string& cat) {
  const obs::TraceSummary s = obs::summarize(events);
  std::printf("%s: %zu events, wall %.3f ms\n\n", path.c_str(), events.size(),
              s.wall_us * 1e-3);

  std::printf("%-12s %12s %12s %10s %8s\n", "phase", "busy (ms)", "sum (ms)", "parallel",
              "events");
  std::printf("%-12s %12s %12s %10s %8s\n", "-----", "---------", "--------", "--------",
              "------");
  for (const auto& [name, busy] : s.category_busy_us) {
    const double sum = s.category_sum_us.at(name);
    std::printf("%-12s %12.3f %12.3f %9.2fx %8llu\n", name.c_str(), busy * 1e-3, sum * 1e-3,
                busy > 0.0 ? sum / busy : 0.0,
                static_cast<unsigned long long>(s.category_events.at(name)));
  }

  std::printf("\nI/O busy    %10.3f ms\n", s.io_busy_us * 1e-3);
  std::printf("compute busy %9.3f ms\n", s.compute_busy_us * 1e-3);
  std::printf("I/O overlapped with compute: %.3f ms (%.1f%% of I/O hidden)\n",
              s.io_overlapped_us * 1e-3, 100.0 * s.overlap_fraction());

  const obs::WaitAnalysis waits = obs::analyze_waits(events);
  if (waits.overall.count > 0) {
    std::printf("\ninputs-pending waits (completion-driven engine):\n");
    std::printf("%-12s %8s %12s %10s %10s %10s\n", "scope", "spans", "total (ms)", "mean (ms)",
                "p99 (ms)", "max (ms)");
    const auto row = [](const std::string& label, const obs::WaitStats& s) {
      std::printf("%-12s %8llu %12.3f %10.3f %10.3f %10.3f\n", label.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_us * 1e-3, s.mean_us * 1e-3,
                  s.p99_us * 1e-3, s.max_us * 1e-3);
    };
    row("overall", waits.overall);
    for (const auto& [node, s] : waits.per_node) row("node " + std::to_string(node), s);
    for (const auto& [group, s] : waits.per_group) {
      row(group >= 0 ? "phase " + std::to_string(group) : "untagged", s);
    }
    std::printf("(%.1f%% of I/O hidden behind compute across these phases)\n",
                100.0 * s.overlap_fraction());
  }

  // Block-fetch source breakdown (hot-block replication triage). The
  // storage layer tags each cat "storage" name "block_fetch" span with a
  // "src" arg — 0 home-disk, 1 peer-memory, 2 failover, 3 await, 4 replica
  // (see docs/TRACE_SCHEMA.md). A healthy replicated run shows its hot reads
  // under "replica"; a run stuck on "home-disk" never crossed the
  // DOOC_REPLICATION hot threshold.
  {
    static constexpr const char* kSrcNames[] = {"home-disk", "peer-memory", "failover", "await",
                                                "replica"};
    constexpr std::size_t kNumSrcs = std::size(kSrcNames);
    std::uint64_t counts[kNumSrcs] = {};
    double us[kNumSrcs] = {};
    std::uint64_t total = 0;
    for (const obs::ParsedEvent& ev : events) {
      if (ev.phase != 'X' || ev.cat != "storage" || ev.name != "block_fetch") continue;
      const auto it = ev.args.find("src");
      if (it == ev.args.end()) continue;
      const auto src = static_cast<std::size_t>(it->second);
      if (src >= kNumSrcs) continue;
      ++counts[src];
      us[src] += ev.dur_us;
      ++total;
    }
    if (total > 0) {
      std::printf("\nblock-fetch sources (%llu tagged fetches):\n",
                  static_cast<unsigned long long>(total));
      for (std::size_t i = 0; i < kNumSrcs; ++i) {
        if (counts[i] == 0) continue;
        std::printf("  %-11s %8llu fetches %12.3f ms (%.1f%%)\n", kSrcNames[i],
                    static_cast<unsigned long long>(counts[i]), us[i] * 1e-3,
                    100.0 * static_cast<double>(counts[i]) / static_cast<double>(total));
      }
    }
  }

  const auto top = obs::slowest(events, top_n, cat);
  if (!top.empty()) {
    std::printf("\ntop %zu slowest '%s' events:\n", top.size(), cat.c_str());
    for (const auto& ev : top) {
      std::printf("  %10.3f ms  node %-3d %s\n", ev.dur_us * 1e-3, ev.pid, ev.name.c_str());
    }
  }
}

}  // namespace
