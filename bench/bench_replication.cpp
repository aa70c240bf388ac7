// Hot-block replication sweep: a skewed-popularity workload (one hot block
// re-read by every node each round, a cold scan large enough to flush it
// under plain LRU) run on the real engine with DOOC_REPLICATION off vs on.
//
// Acceptance shape (gated by bench_replication_check):
//   * solver outputs bitwise identical with replication on (parity_ok);
//   * demand-I/O causal blame strictly lower with replication on
//     (blame_shift_ok) and makespan no worse (makespan_ok);
//   * replica traffic actually observed: promotions and replica hits > 0.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/causal.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "sched/engine.hpp"
#include "storage/storage_cluster.hpp"

using namespace dooc;

namespace {

constexpr int kNodes = 3;
constexpr int kRounds = 6;
constexpr int kColds = 24;
constexpr std::uint64_t kHotBytes = 2ull << 20;
constexpr std::uint64_t kColdBytes = 1ull << 20;

std::string scratch_dir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dooc_repl_") + tag + "_" + std::to_string(::getpid())))
      .string();
}

void import_array(storage::StorageNode& node, const std::string& name, std::uint64_t bytes,
                  std::uint64_t seed) {
  std::filesystem::create_directories(node.scratch_dir());
  const std::string path = node.scratch_dir() + "/" + name + ".src";
  std::vector<std::uint64_t> vals(bytes / 8);
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (auto& v : vals) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(vals.data()), static_cast<std::streamsize>(bytes));
  }
  node.import_file(name, path, bytes);  // one block per array
}

struct Outcome {
  double makespan = 0.0;
  double demand_io_us = 0.0;
  storage::StorageStats stats;
  std::vector<std::uint64_t> results;  ///< every task output, in graph order
};

/// One skewed-popularity run. Round structure (rounds serialized by an
/// 8-byte gate array): every node re-reads the shared hot block, then the
/// round's cold scan (24 x 1 MB across 3 nodes vs a 6 MB budget) flushes
/// node memory. Under LRU the hot block is gone again by the next round;
/// under the frequency-aware policy it is promoted, replicated onto its
/// consumers and protected from the scan.
Outcome run_skewed(const std::string& replication_spec) {
  const std::string dir = scratch_dir(replication_spec.empty() ? "off" : "on");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir;
  cfg.memory_budget = 6ull << 20;
  cfg.throttle_read_bw = 60e6;  // slow device: every reload is expensive
  cfg.replication = storage::ReplicationConfig::parse(replication_spec);
  storage::StorageCluster cluster(kNodes, cfg);

  import_array(cluster.node(0), "hot", kHotBytes, 7);
  for (int i = 0; i < kColds; ++i) {
    import_array(cluster.node(i % kNodes), "cold" + std::to_string(i), kColdBytes,
                 100 + static_cast<std::uint64_t>(i));
  }

  sched::TaskGraph g;
  const auto out_name = [](const char* kind, int r, int i) {
    return std::string(kind) + "_" + std::to_string(r) + "_" + std::to_string(i);
  };
  std::vector<std::string> out_order;
  for (int r = 0; r < kRounds; ++r) {
    const std::string gate = "gate_" + std::to_string(r);
    std::vector<storage::Interval> gate_inputs;
    for (int n = 0; n < kNodes; ++n) {
      const std::string out = out_name("hot_out", r, n);
      cluster.node(n).create_array(out, 8, 8);
      sched::Task t;
      t.name = out;
      t.kind = "hot-read";
      t.inputs = {{"hot", 0, kHotBytes}};
      if (r > 0) t.inputs.push_back({"gate_" + std::to_string(r - 1), 0, 8});
      t.outputs = {{out, 0, 8}};
      t.group = r;
      t.seq = n;
      t.preferred_node = n;
      t.work = [](sched::TaskContext& ctx) {
        // Checksum strided through the whole block: a stale replica (or a
        // torn fetch) changes the sum, so parity below catches it.
        const auto in = ctx.input(0).as<std::uint64_t>();
        std::uint64_t sum = 0;
        for (std::size_t k = 0; k < in.size(); k += 512) sum += in[k];
        ctx.output(0).as<std::uint64_t>()[0] = sum;
      };
      gate_inputs.push_back({out, 0, 8});
      out_order.push_back(out);
      g.add(std::move(t));
    }
    for (int i = 0; i < kColds; ++i) {
      const std::string out = out_name("cold_out", r, i);
      cluster.node(i % kNodes).create_array(out, 8, 8);
      sched::Task t;
      t.name = out;
      t.kind = "cold-scan";
      t.inputs = {{"cold" + std::to_string(i), 0, kColdBytes}};
      if (r > 0) t.inputs.push_back({"gate_" + std::to_string(r - 1), 0, 8});
      t.outputs = {{out, 0, 8}};
      t.group = r;
      t.seq = kNodes + i;
      t.preferred_node = i % kNodes;
      t.work = [](sched::TaskContext& ctx) {
        const auto in = ctx.input(0).as<std::uint64_t>();
        std::uint64_t sum = 0;
        for (std::size_t k = 0; k < in.size(); k += 512) sum += in[k];
        ctx.output(0).as<std::uint64_t>()[0] = sum;
      };
      gate_inputs.push_back({out, 0, 8});
      out_order.push_back(out);
      g.add(std::move(t));
    }
    cluster.node(0).create_array(gate, 8, 8);
    sched::Task t;
    t.name = gate;
    t.kind = "gate";
    t.inputs = std::move(gate_inputs);
    t.outputs = {{gate, 0, 8}};
    t.group = r;
    t.seq = kNodes + kColds;
    t.preferred_node = 0;
    t.work = [](sched::TaskContext& ctx) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < ctx.num_inputs(); ++i) {
        sum += ctx.input(i).as<std::uint64_t>()[0];
      }
      ctx.output(0).as<std::uint64_t>()[0] = sum;
    };
    out_order.push_back(gate);
    g.add(std::move(t));
  }
  g.build();

  obs::TraceSession::instance().start();
  // Blocking I/O mode so every demand stall surfaces as a "wait-inputs"
  // span on the worker lane — the causal walk then charges it to demand-io
  // (the same technique bench_ablation_storage uses to expose the
  // completion-model trade). In completion-driven mode the stalls hide in
  // scheduler gaps and the blame shift would be invisible.
  sched::EngineConfig ecfg;
  ecfg.blocking_io = true;
  sched::Engine engine(cluster, ecfg);
  Outcome out;
  out.makespan = bench::time_seconds([&] { engine.run(g); });
  const std::vector<obs::Event> events = obs::TraceSession::instance().stop();

  const obs::causal::CausalGraph graph =
      obs::causal::CausalGraph::build(obs::parse_chrome_trace(obs::chrome_trace_json(events)));
  out.demand_io_us = graph.blame().get(obs::causal::kBlameDemandIo);
  out.stats = cluster.total_stats();
  for (const std::string& name : out_order) {
    out.results.push_back(cluster.node(0).request_read({name, 0, 8}).get().as<std::uint64_t>()[0]);
  }

  std::printf("  [%s] wall %.3fs demand-io blame %.1fms disk reads %llu replica hits %llu "
              "promotions %llu\n",
              replication_spec.empty() ? "off" : "on ", out.makespan, out.demand_io_us / 1e3,
              static_cast<unsigned long long>(out.stats.disk_reads),
              static_cast<unsigned long long>(out.stats.replica_hits),
              static_cast<unsigned long long>(out.stats.replica_promotions));
  std::filesystem::remove_all(dir);
  return out;
}

double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

int main() {
  bench::JsonReport report;
  report.meta("bench", "replication");

  bench::section("skewed-popularity sweep — real engine, hot block vs LRU-flushing cold scan");
  std::printf("  (%d nodes, %d rounds, hot %llu MB re-read per node per round, cold scan "
              "%d x %llu MB, 6 MB budget, 60 MB/s device)\n",
              kNodes, kRounds, static_cast<unsigned long long>(kHotBytes >> 20), kColds,
              static_cast<unsigned long long>(kColdBytes >> 20));

  // Interleaved reps, medians — same discipline as the codec ablation so a
  // cold first run can't skew either mode.
  const std::string on_spec = "on,hot_threshold=2,decay=1048576";
  Outcome off[3];
  Outcome on[3];
  for (int rep = 0; rep < 3; ++rep) {
    off[rep] = run_skewed("");
    on[rep] = run_skewed(on_spec);
  }
  const double off_wall = median3(off[0].makespan, off[1].makespan, off[2].makespan);
  const double on_wall = median3(on[0].makespan, on[1].makespan, on[2].makespan);
  const double off_blame =
      median3(off[0].demand_io_us, off[1].demand_io_us, off[2].demand_io_us);
  const double on_blame = median3(on[0].demand_io_us, on[1].demand_io_us, on[2].demand_io_us);

  bench::Table table({"replication", "wall time (median/3)", "demand-I/O blame", "disk reads",
                      "replica hits", "promotions", "bypass"});
  table.add_row({"off", bench::fmt("%.2f s", off_wall), bench::fmt("%.1f ms", off_blame / 1e3),
                 std::to_string(off[0].stats.disk_reads), "-", "-", "-"});
  table.add_row({"on", bench::fmt("%.2f s", on_wall), bench::fmt("%.1f ms", on_blame / 1e3),
                 std::to_string(on[0].stats.disk_reads),
                 std::to_string(on[0].stats.replica_hits),
                 std::to_string(on[0].stats.replica_promotions),
                 std::to_string(on[0].stats.replica_bypass)});
  table.print();
  std::printf("(off: every round's cold scan flushes the hot block and each node re-reads it\n"
              " from the throttled device; on: the block crosses the hot threshold, replicates\n"
              " onto its consumers and sits in the 2Q-protected class — demand I/O leaves the\n"
              " critical path)\n");

  // Acceptance 1: bitwise-identical results. Replication must be invisible
  // to the numerics — same sums in every rep, both modes.
  bool parity = true;
  for (int rep = 0; rep < 3; ++rep) {
    parity = parity && off[rep].results == on[rep].results && off[rep].results == off[0].results;
  }
  // Acceptance 2: the blame shift, strictly.
  const bool blame_shift = on_blame < off_blame;
  // Acceptance 3: makespan no worse (10% wall-noise tolerance).
  const bool makespan_ok = on_wall <= off_wall * 1.10;
  // Acceptance 4: the mechanism actually engaged.
  const bool traffic =
      on[0].stats.replica_promotions > 0 && on[0].stats.replica_hits > 0 &&
      off[0].stats.replica_hits == 0;

  std::printf("\nresults bitwise identical across modes and reps: %s\n", parity ? "YES" : "NO");
  std::printf("blame shift: on %.1f ms < off %.1f ms: %s\n", on_blame / 1e3, off_blame / 1e3,
              blame_shift ? "YES" : "NO");
  std::printf("makespan: on %.2f s <= off %.2f s (+10%%): %s\n", on_wall, off_wall,
              makespan_ok ? "YES" : "NO");
  std::printf("replica traffic observed (promotions %llu, hits %llu): %s\n",
              static_cast<unsigned long long>(on[0].stats.replica_promotions),
              static_cast<unsigned long long>(on[0].stats.replica_hits),
              traffic ? "YES" : "NO");

  report.meta("parity_ok", static_cast<std::uint64_t>(parity ? 1 : 0));
  report.meta("blame_shift_ok", static_cast<std::uint64_t>(blame_shift ? 1 : 0));
  report.meta("makespan_ok", static_cast<std::uint64_t>(makespan_ok ? 1 : 0));
  report.meta("replica_traffic_ok", static_cast<std::uint64_t>(traffic ? 1 : 0));
  report.meta("off_wall_s", off_wall);
  report.meta("on_wall_s", on_wall);
  report.meta("off_demand_io_ms", off_blame / 1e3);
  report.meta("on_demand_io_ms", on_blame / 1e3);
  report.meta("real_replica_hits", on[0].stats.replica_hits);
  report.meta("real_replica_promotions", on[0].stats.replica_promotions);
  report.meta("real_replica_bypass", on[0].stats.replica_bypass);

  const int failures =
      (parity ? 0 : 1) + (blame_shift ? 0 : 1) + (makespan_ok ? 0 : 1) + (traffic ? 0 : 1);

  const std::string artifact = "BENCH_replication.json";
  if (!report.write(artifact)) {
    std::printf("FAILED to write %s\n", artifact.c_str());
    return 1;
  }
  std::printf("wrote %s\n", artifact.c_str());
  return failures == 0 ? 0 : 1;
}
