// Tests for dooc::obs::causal — correlation ids, the causal DAG rebuilt
// from flow events (hand-built traces with known critical paths, blame and
// what-if retiming), the flow emission of the real engine and the DES
// (same id scheme under real and virtual time), and the trace-completeness
// metadata record.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "sched/engine.hpp"
#include "simcluster/sim_engine.hpp"
#include "solver/array_creator.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"
#include "storage/storage_cluster.hpp"
#include "test_util.hpp"

namespace dooc {
namespace {

using obs::ParsedEvent;
using namespace obs::causal;

ParsedEvent span(const char* cat, const char* name, double ts, double dur, int pid, int tid,
                 std::int64_t task = -1) {
  ParsedEvent ev;
  ev.phase = 'X';
  ev.cat = cat;
  ev.name = name;
  ev.ts_us = ts;
  ev.dur_us = dur;
  ev.pid = pid;
  ev.tid = tid;
  if (task >= 0) ev.args["task"] = static_cast<double>(task);
  return ev;
}

ParsedEvent flow(char phase, std::uint64_t id, double ts, int pid, int tid,
                 std::int64_t task = -1) {
  ParsedEvent ev;
  ev.phase = phase;
  ev.cat = "dep";
  ev.name = "flow";
  ev.ts_us = ts;
  ev.pid = pid;
  ev.tid = tid;
  ev.flow_id = id;
  if (task >= 0) ev.args["task"] = static_cast<double>(task);
  return ev;
}

// ---- correlation ids -------------------------------------------------------

TEST(FlowIds, NamespacesAreDisjointAndIdsDeterministic) {
  const std::uint64_t dep = flow_id_dep("x_0^1");
  const std::uint64_t load = flow_id_load("A_0_0", 0);
  EXPECT_EQ(dep & kFlowNamespaceMask, kFlowDep);
  EXPECT_EQ(load & kFlowNamespaceMask, kFlowLoad);
  // Pure functions: the engine and the DES compute identical ids.
  EXPECT_EQ(dep, flow_id_dep("x_0^1"));
  EXPECT_EQ(load, flow_id_load("A_0_0", 0));
  // Distinct names and distinct offsets separate.
  EXPECT_NE(flow_id_dep("x_0^1"), flow_id_dep("x_1^1"));
  EXPECT_NE(flow_id_load("A_0_0", 0), flow_id_load("A_0_0", 4096));
  EXPECT_NE(flow_id_dep("A_0_0"), flow_id_load("A_0_0", 0));
}

// ---- hand-built graph: known path, blame, what-if --------------------------

// Scenario (all on pid 0): a 100 µs block load feeds task 1 (50 µs compute
// on lane 0), whose output feeds task 2 (40 µs on lane 1) after a 10 µs
// scheduling gap. Makespan 200 µs, every segment known in closed form.
std::vector<ParsedEvent> chain_trace() {
  const std::uint64_t load = flow_id_load("A", 0);
  const std::uint64_t dep = flow_id_dep("x");
  std::vector<ParsedEvent> events;
  events.push_back(flow('s', load, 0.0, 0, 100));
  events.push_back(flow('t', load, 100.0, 0, 100));
  events.push_back(flow('f', load, 100.0, 0, 0, /*task=*/1));
  events.push_back(span("task", "t1", 100.0, 50.0, 0, 0, /*task=*/1));
  events.push_back(flow('s', dep, 150.0, 0, 0, /*task=*/1));
  events.push_back(flow('f', dep, 160.0, 0, 1, /*task=*/2));
  events.push_back(span("task", "t2", 160.0, 40.0, 0, 1, /*task=*/2));
  return events;
}

TEST(CausalGraph, CriticalPathOfKnownChain) {
  const CausalGraph g = CausalGraph::build(chain_trace());
  ASSERT_EQ(g.nodes().size(), 3u);  // t1, t2, load
  EXPECT_DOUBLE_EQ(g.makespan_us(), 200.0);

  const auto path = g.critical_path();
  ASSERT_EQ(path.size(), 4u);
  // Source→sink: the un-shadowed load, t1's compute, the 10 µs gap charged
  // to the scheduler, t2's compute.
  EXPECT_EQ(path[0].category, kBlameDemandIo);
  EXPECT_DOUBLE_EQ(path[0].us, 100.0);
  EXPECT_EQ(path[1].category, kBlameCompute);
  EXPECT_DOUBLE_EQ(path[1].us, 50.0);
  EXPECT_EQ(path[2].category, kBlameSchedWait);
  EXPECT_DOUBLE_EQ(path[2].us, 10.0);
  EXPECT_EQ(path[3].category, kBlameCompute);
  EXPECT_DOUBLE_EQ(path[3].us, 40.0);
}

TEST(CausalGraph, BlameSumsThePathAndTilesTheMakespan) {
  const CausalGraph g = CausalGraph::build(chain_trace());
  const Blame b = g.blame();
  EXPECT_DOUBLE_EQ(b.get(kBlameDemandIo), 100.0);
  EXPECT_DOUBLE_EQ(b.get(kBlameCompute), 90.0);
  EXPECT_DOUBLE_EQ(b.get(kBlameSchedWait), 10.0);
  EXPECT_DOUBLE_EQ(b.total_us(), g.makespan_us());
}

TEST(CausalGraph, WhatIfRetimesTheDag) {
  const CausalGraph g = CausalGraph::build(chain_trace());
  // Free storage: the load vanishes, t1 runs [0,50), t2 right after
  // (retiming drops the measured scheduling gap too — it was slack).
  EXPECT_DOUBLE_EQ(g.what_if("io", 0.0), 90.0);
  EXPECT_DOUBLE_EQ(g.speedup_if("io", 0.0), 200.0 / 90.0);
  // Twice-as-fast compute: 100 + 25 + 20.
  EXPECT_DOUBLE_EQ(g.what_if("compute", 0.5), 145.0);
  // Factor 1 on anything reproduces the DAG's own span (sans slack).
  EXPECT_DOUBLE_EQ(g.what_if("compute", 1.0), 190.0);
  // Monotonicity guarantee: factor <= 1 never exceeds the measured makespan.
  EXPECT_LE(g.what_if("io", 0.0), g.makespan_us());
}

TEST(CausalGraph, LoadOverlappedByComputeIsPrefetchShadowed) {
  // Same chain, but the load's delivery slides to 130 µs — its tail overlaps
  // t1's compute [100,150): 30 µs shadowed... except t1 *consumed* it at
  // 100. Build a variant where a second load [100,130) feeds t2 instead.
  std::vector<ParsedEvent> events = chain_trace();
  const std::uint64_t load2 = flow_id_load("B", 0);
  events.push_back(flow('s', load2, 100.0, 0, 101));
  events.push_back(flow('t', load2, 130.0, 0, 101));
  events.push_back(flow('f', load2, 130.0, 0, 1, /*task=*/2));
  const CausalGraph g = CausalGraph::build(events);
  const auto path = g.critical_path();
  double prefetch = 0.0;
  for (const auto& seg : path) {
    if (seg.category == kBlamePrefetchIo) prefetch += seg.us;
  }
  // The critical route to t2 still runs through t1 (ends 150 > 130), so the
  // shadowed load is NOT on the path; total blame still tiles the makespan.
  EXPECT_DOUBLE_EQ(prefetch, 0.0);
  EXPECT_DOUBLE_EQ(g.blame().total_us(), g.makespan_us());
}

TEST(CausalGraph, ReReadAfterEvictionSplitsInstances) {
  const std::uint64_t load = flow_id_load("A", 0);
  std::vector<ParsedEvent> events;
  events.push_back(flow('s', load, 0.0, 0, 100));
  events.push_back(flow('t', load, 10.0, 0, 100));
  events.push_back(flow('s', load, 50.0, 0, 100));  // evicted, re-read
  events.push_back(flow('t', load, 65.0, 0, 100));
  events.push_back(flow('f', load, 65.0, 0, 0, /*task=*/7));
  events.push_back(span("task", "t7", 65.0, 5.0, 0, 0, /*task=*/7));
  const CausalGraph g = CausalGraph::build(events);
  int loads = 0;
  for (const auto& n : g.nodes()) {
    if (n.kind == NodeKind::Load) ++loads;
  }
  EXPECT_EQ(loads, 2);
  // The consumer binds to the second instance (the one its 'f' fell into).
  const auto path = g.critical_path();
  ASSERT_FALSE(path.empty());
  double demand = 0.0;
  for (const auto& seg : path) {
    if (seg.category == kBlameDemandIo) demand += seg.us;
  }
  EXPECT_DOUBLE_EQ(demand, 15.0);
}

TEST(CausalGraph, OrphanFlowPointsAndEmptyTracesAreHarmless) {
  std::vector<ParsedEvent> events;
  events.push_back(flow('t', flow_id_load("A", 0), 5.0, 0, 100));  // no 's'
  events.push_back(flow('f', flow_id_dep("x"), 6.0, 0, 0, 3));     // no 's'
  const CausalGraph g = CausalGraph::build(events);
  EXPECT_TRUE(g.empty());
  EXPECT_TRUE(g.critical_path().empty());
  EXPECT_EQ(g.what_if("io", 0.0), 0.0);
  EXPECT_NE(causal_report(g, true, true, {}).find("no task/flow events"), std::string::npos);
}

// ---- engine and DES emission ----------------------------------------------

/// Tiny but real iterated-SpMV deployment shared by the emission tests.
struct RealRun {
  std::set<std::uint64_t> dep_starts;
  std::set<std::uint64_t> load_starts;
  std::vector<ParsedEvent> parsed;
};

RealRun run_real_engine(const testutil::TempDir& dir) {
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 4ull << 20;
  storage::StorageCluster cluster(2, cfg);
  auto m = spmv::generate_uniform_gap(256, 256, 4.0, 0xca5a1);
  const auto owner = spmv::row_strip_owner(2);
  const auto deployed = spmv::deploy_matrix(cluster, m, 2, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });
  solver::IteratedSpmvConfig config;
  config.iterations = 2;
  config.mode = solver::ReductionMode::Interleaved;
  config.inter_iteration_sync = false;
  solver::IteratedSpmv driver(cluster, deployed, config);

  obs::TraceSession::instance().start();
  sched::Engine engine(cluster, {});
  driver.run(engine);
  const std::vector<obs::Event> events = obs::TraceSession::instance().stop();

  RealRun out;
  out.parsed = obs::parse_chrome_trace(obs::chrome_trace_json(events));
  for (const auto& ev : out.parsed) {
    if (ev.phase != 's' || ev.flow_id == 0) continue;
    const std::uint64_t ns = ev.flow_id & kFlowNamespaceMask;
    if (ns == kFlowDep) out.dep_starts.insert(ev.flow_id);
    if (ns == kFlowLoad) out.load_starts.insert(ev.flow_id);
  }
  return out;
}

TEST(EngineCausal, EmitsLinkedFlowsAndYieldsACausalGraph) {
  testutil::TempDir dir("causal_engine");
  const RealRun run = run_real_engine(dir);

  // Dep flows: one 's' per produced intermediate; the id is the pure
  // function of the array name, so a known output must be present.
  EXPECT_FALSE(run.dep_starts.empty());
  EXPECT_TRUE(run.dep_starts.count(flow_id_dep(spmv::BlockGrid::vector_name("x", 1, 0))) > 0)
      << "missing dep flow for the iteration-1 vector part";
  // Load flows: cold sub-matrix reads must have issued at least one.
  EXPECT_FALSE(run.load_starts.empty());

  // Every load 's' has a matching terminal point ('t' delivery or 'f').
  std::set<std::uint64_t> load_closers;
  bool has_step = false;
  bool dep_consumed = false;
  for (const auto& ev : run.parsed) {
    if (ev.flow_id == 0) continue;
    const std::uint64_t ns = ev.flow_id & kFlowNamespaceMask;
    if (ns == kFlowLoad && (ev.phase == 't' || ev.phase == 'f')) load_closers.insert(ev.flow_id);
    if (ns == kFlowLoad && ev.phase == 't') has_step = true;
    if (ns == kFlowDep && ev.phase == 'f') dep_consumed = ev.args.count("task") > 0;
  }
  EXPECT_TRUE(has_step) << "storage completion path must emit 't' delivery points";
  EXPECT_TRUE(dep_consumed) << "dep 'f' points must carry the consumer task id";
  for (const std::uint64_t id : run.load_starts) EXPECT_TRUE(load_closers.count(id) > 0);

  // The graph reconstructs: compute nodes exist, at least one has a causal
  // predecessor, and blame tiles the traced makespan.
  const CausalGraph g = CausalGraph::build(run.parsed);
  ASSERT_FALSE(g.empty());
  bool any_pred = false;
  for (const auto& n : g.nodes()) any_pred = any_pred || !n.preds.empty();
  EXPECT_TRUE(any_pred);
  EXPECT_GT(g.blame().total_us(), 0.0);
  EXPECT_LE(g.what_if("io", 0.0), g.makespan_us() + 1e-9);
}

/// Graph-only DES twin of run_real_engine (same names, same shape), traced.
std::vector<obs::Event> run_traced_sim(const testutil::TempDir& dir) {
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  storage::StorageCluster cluster(2, cfg);
  auto m = spmv::generate_uniform_gap(256, 256, 4.0, 0xca5a1);
  const auto owner = spmv::row_strip_owner(2);
  const auto deployed = spmv::deploy_matrix(cluster, m, 2, owner);

  solver::VirtualArrayCreator creator;
  for (int u = 0; u < 2; ++u) {
    for (int v = 0; v < 2; ++v) {
      creator.add_durable(deployed.name_of(u, v), deployed.bytes_of(u, v),
                          deployed.owner_of(u, v));
    }
    creator.add_durable(spmv::BlockGrid::vector_name("x", 0, u),
                        deployed.grid.part_size(u) * sizeof(double), u);
  }
  solver::IteratedSpmvConfig config;
  config.iterations = 2;
  config.mode = solver::ReductionMode::Interleaved;
  config.inter_iteration_sync = false;
  solver::IteratedSpmv driver(creator, deployed, config);

  obs::TraceSession::instance().start();
  sim::SimEngine sim(2, sim::SimResources{}, creator.arrays());
  const sim::SimMetrics metrics = sim.run(driver.graph(), sched::LocalPolicy::DataAware);
  std::vector<obs::Event> events = obs::TraceSession::instance().stop();
  EXPECT_GT(metrics.makespan, 0.0);
  return events;
}

TEST(SimCausal, VirtualTimeRunEmitsTheSameIdScheme) {
  testutil::TempDir dir("causal_sim");
  const std::vector<obs::Event> events = run_traced_sim(dir);

  const auto parsed = obs::parse_chrome_trace(obs::chrome_trace_json(events));
  std::set<std::uint64_t> dep_starts;
  std::set<std::uint64_t> load_starts;
  for (const auto& ev : parsed) {
    if (ev.phase != 's' || ev.flow_id == 0) continue;
    const std::uint64_t ns = ev.flow_id & kFlowNamespaceMask;
    if (ns == kFlowDep) dep_starts.insert(ev.flow_id);
    if (ns == kFlowLoad) load_starts.insert(ev.flow_id);
  }
  EXPECT_FALSE(dep_starts.empty());
  EXPECT_FALSE(load_starts.empty());

  // The causal machinery works unchanged under virtual time.
  const CausalGraph g = CausalGraph::build(parsed);
  ASSERT_FALSE(g.empty());
  EXPECT_GT(g.blame().total_us(), 0.0);

  // Parity with the real engine: the dep-flow id sets are *equal* (both
  // derive from the same task-graph array names), and at least the cold
  // sub-matrix loads collide on (array, offset 0).
  testutil::TempDir real_dir("causal_sim_real");
  const RealRun real = run_real_engine(real_dir);
  EXPECT_EQ(dep_starts, real.dep_starts);
  std::set<std::uint64_t> common;
  std::set_intersection(load_starts.begin(), load_starts.end(), real.load_starts.begin(),
                        real.load_starts.end(), std::inserter(common, common.begin()));
  EXPECT_FALSE(common.empty());
}

TEST(SimCausal, IdenticalRunsTraceIdenticalEvents) {
  // Every DES event is stamped in virtual time, so two identical runs must
  // export the same trace; one wall-clock span would make them differ.
  testutil::TempDir dir_a("causal_sim_a");
  testutil::TempDir dir_b("causal_sim_b");
  const std::string a = obs::chrome_trace_json(run_traced_sim(dir_a));
  const std::string b = obs::chrome_trace_json(run_traced_sim(dir_b));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---- trace-completeness metadata -------------------------------------------

TEST(TraceMeta, StatsRecordEmbedsAndParses) {
  std::vector<obs::Event> events;
  obs::Event ev;
  ev.phase = obs::Phase::Instant;
  ev.cat = obs::intern("test");
  ev.name = obs::intern("tick");
  ev.ts_ns = 1000;
  events.push_back(ev);

  obs::TraceMeta meta;
  meta.dropped_events = 5;
  meta.ring_capacity = 1024;
  meta.interned_strings = 33;
  const auto parsed = obs::parse_chrome_trace(obs::chrome_trace_json(events, &meta));
  const auto it = std::find_if(parsed.begin(), parsed.end(), [](const ParsedEvent& e) {
    return e.phase == 'M' && e.name == "dooc_trace_stats";
  });
  ASSERT_NE(it, parsed.end());
  EXPECT_DOUBLE_EQ(it->args.at("dropped_events"), 5.0);
  EXPECT_DOUBLE_EQ(it->args.at("ring_capacity"), 1024.0);
  EXPECT_DOUBLE_EQ(it->args.at("interned_strings"), 33.0);
}

TEST(TraceMeta, SessionStopWritesStatsIntoTheFile) {
  testutil::TempDir dir("causal_meta");
  const std::string path = dir.str() + "/trace.json";
  obs::TraceSession::instance().start(path);
  obs::emit_instant(obs::intern("test"), obs::intern("tick"), 0, 0);
  obs::TraceSession::instance().stop();

  const auto parsed = obs::load_chrome_trace(path);
  const auto it = std::find_if(parsed.begin(), parsed.end(), [](const ParsedEvent& e) {
    return e.phase == 'M' && e.name == "dooc_trace_stats";
  });
  ASSERT_NE(it, parsed.end());
  EXPECT_DOUBLE_EQ(it->args.at("dropped_events"), 0.0);
  EXPECT_GT(it->args.at("ring_capacity"), 0.0);
  EXPECT_GT(it->args.at("interned_strings"), 0.0);
}

}  // namespace
}  // namespace dooc
