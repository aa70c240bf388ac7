// Integration tests: the iterated-SpMV driver on the full stack
// (storage + hierarchical scheduler + engine), checked against a dense
// in-memory reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <thread>

#include "jobs/job_manager.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"
#include "test_util.hpp"

namespace dooc::solver {
namespace {

using spmv::BlockGrid;
using spmv::CsrMatrix;

struct Scenario {
  int nodes;
  int k;
  int iterations;
  ReductionMode mode;
  sched::LocalPolicy policy;
  bool inter_sync;
};

std::vector<double> reference_iterate(const CsrMatrix& m, std::vector<double> x, int iters) {
  std::vector<double> y(m.rows);
  for (int i = 0; i < iters; ++i) {
    m.multiply(x, y);
    x = y;
  }
  return x;
}

class IteratedSpmvCorrectness : public ::testing::TestWithParam<Scenario> {};

TEST_P(IteratedSpmvCorrectness, MatchesDenseReference) {
  const Scenario s = GetParam();
  testutil::TempDir dir("itspmv");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 64ull << 20;
  storage::StorageCluster cluster(s.nodes, cfg);

  const std::uint64_t n = 96;
  CsrMatrix m = spmv::generate_uniform_gap(n, n, 2.0, 31337);
  // Scale to keep iterates in a sane numeric range.
  for (auto& v : m.values) v *= 0.1;

  const auto owner = spmv::column_strip_owner(s.nodes);
  const auto deployed = spmv::deploy_matrix(cluster, m, s.k, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 + 0.01 * static_cast<double>(i); });

  IteratedSpmvConfig config;
  config.iterations = s.iterations;
  config.mode = s.mode;
  config.inter_iteration_sync = s.inter_sync;
  IteratedSpmv driver(cluster, deployed, config);

  sched::EngineConfig ecfg;
  ecfg.local_policy = s.policy;
  sched::Engine engine(cluster, ecfg);
  const auto report = driver.run(engine);
  EXPECT_EQ(report.tasks_executed, driver.graph().size());

  std::vector<double> x0(n);
  for (std::uint64_t i = 0; i < n; ++i) x0[i] = 1.0 + 0.01 * static_cast<double>(i);
  const auto expect = reference_iterate(m, x0, s.iterations);
  const auto got = driver.gather_result();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-9 * (1.0 + std::abs(expect[i]))) << "at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, IteratedSpmvCorrectness,
    ::testing::Values(
        Scenario{1, 3, 2, ReductionMode::Simple, sched::LocalPolicy::Fifo, true},
        Scenario{1, 3, 2, ReductionMode::Interleaved, sched::LocalPolicy::DataAware, true},
        Scenario{3, 3, 2, ReductionMode::Simple, sched::LocalPolicy::DataAware, true},
        Scenario{3, 3, 2, ReductionMode::Interleaved, sched::LocalPolicy::DataAware, true},
        Scenario{3, 3, 3, ReductionMode::Interleaved, sched::LocalPolicy::DataAware, false},
        Scenario{3, 3, 2, ReductionMode::Interleaved, sched::LocalPolicy::BackAndForth, true},
        Scenario{2, 4, 2, ReductionMode::Interleaved, sched::LocalPolicy::DataAware, true},
        Scenario{4, 4, 3, ReductionMode::Simple, sched::LocalPolicy::DataAware, true}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      const Scenario& s = info.param;
      return "n" + std::to_string(s.nodes) + "_k" + std::to_string(s.k) + "_i" +
             std::to_string(s.iterations) + "_" +
             (s.mode == ReductionMode::Simple ? "simple" : "interleaved") + "_" +
             (s.policy == sched::LocalPolicy::Fifo
                  ? "fifo"
                  : (s.policy == sched::LocalPolicy::DataAware ? "aware" : "baf")) +
             (s.inter_sync ? "_sync" : "_nosync");
    });

TEST(IteratedSpmv, SellDeploymentMatchesDenseReference) {
  // Same pipeline, but blocks are stored as SELL-C-σ: deployment
  // serializes the new format and the task bodies dispatch on the magic.
  testutil::TempDir dir("itspmv_sell");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 64ull << 20;
  storage::StorageCluster cluster(2, cfg);

  const std::uint64_t n = 96;
  CsrMatrix m = spmv::generate_power_law(n, n, 6.0, 1.6, 4242);
  for (auto& v : m.values) v *= 0.1;

  spmv::KernelConfig kernels;
  kernels.format = spmv::MatrixFormat::Sell;
  kernels.sell_chunk = 4;
  kernels.sell_sigma = 16;
  const auto owner = spmv::column_strip_owner(2);
  const auto deployed = spmv::deploy_matrix(cluster, m, 3, owner, "A", kernels);
  EXPECT_EQ(deployed.format, spmv::MatrixFormat::Sell);
  EXPECT_EQ(deployed.total_nnz(), m.nnz());
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 + 0.01 * static_cast<double>(i); });

  IteratedSpmvConfig config;
  config.iterations = 2;
  config.kernels = kernels;
  IteratedSpmv driver(cluster, deployed, config);
  sched::Engine engine(cluster, {});
  driver.run(engine);

  std::vector<double> x0(n);
  for (std::uint64_t i = 0; i < n; ++i) x0[i] = 1.0 + 0.01 * static_cast<double>(i);
  const auto expect = reference_iterate(m, x0, 2);
  const auto got = driver.gather_result();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-9 * (1.0 + std::abs(expect[i]))) << "at index " << i;
  }
}

TEST(IteratedSpmv, CommandListMatchesFig3Shape) {
  testutil::TempDir dir("fig3");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  storage::StorageCluster cluster(1, cfg);
  CsrMatrix m = spmv::generate_uniform_gap(30, 30, 2.0, 9);
  const auto owner = spmv::column_strip_owner(1);
  const auto deployed = spmv::deploy_matrix(cluster, m, 3, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });
  IteratedSpmvConfig config;
  config.iterations = 2;
  config.mode = ReductionMode::Simple;
  IteratedSpmv driver(cluster, deployed, config);

  const std::string commands = driver.command_list();
  // 9 multiplies and 3 sums per iteration, 2 iterations (Fig. 3 text).
  EXPECT_EQ(std::count(commands.begin(), commands.end(), '*'), 18);
  EXPECT_NE(commands.find("x_{0,0}^1 = A_{0,0} * x_0^0"), std::string::npos);
  EXPECT_NE(commands.find("x_0^1 = x_{0,0}^1 + x_{0,1}^1 + x_{0,2}^1"), std::string::npos);
  EXPECT_NE(commands.find("x_{2,2}^2 = A_{2,2} * x_2^1"), std::string::npos);

  const std::string deps = driver.dependency_list();
  // Fig. 4: second-iteration multiply x_{u,v}^2 depends on x_v^1.
  EXPECT_NE(deps.find("x_{0,1}^2 (A_0_1) <- x_1^1"), std::string::npos);
}

TEST(IteratedSpmv, DagSizesMatchFig4) {
  testutil::TempDir dir("fig4");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  storage::StorageCluster cluster(1, cfg);
  CsrMatrix m = spmv::generate_uniform_gap(30, 30, 2.0, 9);
  const auto owner = spmv::column_strip_owner(1);
  const auto deployed = spmv::deploy_matrix(cluster, m, 3, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });

  // Without syncs: exactly the Fig. 4 DAG (9 multiplies + 3 sums per iter).
  IteratedSpmvConfig config;
  config.iterations = 2;
  config.mode = ReductionMode::Simple;
  config.inter_iteration_sync = false;
  IteratedSpmv driver(cluster, deployed, config);
  // Simple mode adds one syncm task per iteration.
  EXPECT_EQ(driver.graph().size(), 2u * (9 + 3 + 1));

  std::size_t mults = 0, sums = 0;
  for (sched::TaskId t = 0; t < driver.graph().size(); ++t) {
    const auto& kind = driver.graph().task(t).kind;
    if (kind == "multiply") ++mults;
    if (kind == "sum") ++sums;
  }
  EXPECT_EQ(mults, 18u);
  EXPECT_EQ(sums, 6u);
}

TEST(IteratedSpmv, CleanupDeletesIntermediatesKeepsResult) {
  testutil::TempDir dir("cleanup");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  storage::StorageCluster cluster(1, cfg);
  CsrMatrix m = spmv::generate_uniform_gap(30, 30, 2.0, 9);
  const auto owner = spmv::column_strip_owner(1);
  const auto deployed = spmv::deploy_matrix(cluster, m, 3, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });
  IteratedSpmvConfig config;
  config.iterations = 2;
  IteratedSpmv driver(cluster, deployed, config);
  sched::Engine engine(cluster, {});
  driver.run(engine);
  driver.cleanup_intermediates();

  EXPECT_FALSE(cluster.node(0).array_meta("xp1_0_0").has_value());
  EXPECT_FALSE(cluster.node(0).array_meta("x1_0").has_value());
  EXPECT_TRUE(cluster.node(0).array_meta("x2_0").has_value());
}

// ---------------------------------------------------------------------------
// Transient intermediates: reclaimed as soon as their last reader finishes
// ---------------------------------------------------------------------------

/// A small 2-node deployment: K = 4 column strips, so every
/// row aggregates locally on both nodes before its reduction.
class TwoNodeSolve {
 public:
  static constexpr std::uint64_t kN = 4096;

  explicit TwoNodeSolve(const std::string& tag) : dir_(tag) {
    storage::StorageConfig cfg;
    cfg.scratch_root = dir_.str();
    cfg.memory_budget = 64ull << 20;
    cluster_ = std::make_unique<storage::StorageCluster>(2, cfg);
    CsrMatrix m = spmv::generate_uniform_gap(kN, kN, 256.0, 2024);  // ~16 nnz/row
    for (auto& v : m.values) v *= 0.1;
    const auto owner = spmv::column_strip_owner(2);
    deployed_ = spmv::deploy_matrix(*cluster_, m, 4, owner);
    spmv::create_distributed_vector(*cluster_, deployed_.grid, owner, "x", 0,
                                    [](std::uint64_t i) { return 1.0 + 1e-4 * static_cast<double>(i); });
  }

  [[nodiscard]] storage::StorageCluster& cluster() { return *cluster_; }
  [[nodiscard]] const spmv::DeployedMatrix& deployed() const { return deployed_; }

  /// Nodes holding a resident block of `array`.
  [[nodiscard]] int holders(const std::string& array) {
    int n = 0;
    for (int node = 0; node < cluster_->num_nodes(); ++node) {
      const auto res = cluster_->node(node).residency(array);
      n += std::count(res.begin(), res.end(), true) > 0 ? 1 : 0;
    }
    return n;
  }

 private:
  testutil::TempDir dir_;
  std::unique_ptr<storage::StorageCluster> cluster_;
  spmv::DeployedMatrix deployed_;
};

/// Polls the cluster's resident bytes on a side thread while a solve runs.
class ResidentPeak {
 public:
  explicit ResidentPeak(storage::StorageCluster& cluster)
      : cluster_(cluster), thread_([this] {
          while (!stop_.load()) {
            sample();
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }) {}
  ResidentPeak(const ResidentPeak&) = delete;
  ResidentPeak& operator=(const ResidentPeak&) = delete;
  ~ResidentPeak() { stop(); }

  /// Peak bytes seen, including the state at the moment of the call.
  std::uint64_t stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
      sample();
    }
    return peak_;
  }

 private:
  void sample() { peak_ = std::max(peak_, cluster_.total_resident_bytes()); }

  storage::StorageCluster& cluster_;
  std::atomic<bool> stop_{false};
  std::uint64_t peak_ = 0;
  std::thread thread_;
};

/// The same tasks with no array marked transient: the engine then drops
/// nothing, as it did before it reclaimed intermediates.
sched::TaskGraph without_transients(const sched::TaskGraph& graph) {
  sched::TaskGraph copy;
  for (sched::TaskId t = 0; t < graph.size(); ++t) copy.add(graph.task(t));
  copy.build();
  return copy;
}

/// Bytes of the transient arrays written by one (middle) iteration's tasks.
std::uint64_t iteration_intermediate_bytes(storage::StorageCluster& cluster,
                                           const sched::TaskGraph& graph, int iteration) {
  const auto& transient = graph.transient_arrays();
  const std::set<std::string> names(transient.begin(), transient.end());
  std::uint64_t bytes = 0;
  for (sched::TaskId t = 0; t < graph.size(); ++t) {
    if (graph.task(t).group != iteration) continue;
    for (const auto& out : graph.task(t).outputs) {
      if (names.count(out.array) != 0) bytes += cluster.node(0).array_meta(out.array)->size;
    }
  }
  return bytes;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

IteratedSpmvConfig interleaved(int iterations) {
  IteratedSpmvConfig config;
  config.iterations = iterations;
  config.mode = ReductionMode::Interleaved;
  config.inter_iteration_sync = true;
  return config;
}

TEST(TransientIntermediates, SolverMarksEverythingButTheFinalIterates) {
  TwoNodeSolve s("transient_marks");
  IteratedSpmv iterated(s.cluster(), s.deployed(), interleaved(3));
  const auto& transient = iterated.graph().transient_arrays();
  const std::set<std::string> names(transient.begin(), transient.end());
  for (int u = 0; u < 4; ++u) {
    EXPECT_EQ(names.count(BlockGrid::vector_name("x", 3, u)), 0u) << "x^N is the result";
    EXPECT_EQ(names.count(BlockGrid::vector_name("x", 2, u)), 1u);
    EXPECT_EQ(names.count(BlockGrid::vector_name("x", 0, u)), 0u) << "x^0 pre-exists";
  }
  EXPECT_EQ(names.count(BlockGrid::partial_name("x", 3, 1, 2)), 1u);
  // Every created array is written in the graph; all but the 4 final parts
  // are transient: 3 x (16 partials + 8 aggregates + 4 iterates) + 2 sync
  // tokens - 4 final iterates.
  EXPECT_EQ(transient.size(), 3u * (16 + 8 + 4) + 2 - 4);
}

TEST(TransientIntermediates, PeakResidencyStaysFlatAcrossIterations) {
  const auto solve = [](int iterations, bool reclaim, std::uint64_t* peak,
                        std::uint64_t* per_iteration) {
    TwoNodeSolve s("transient_peak");
    IteratedSpmv iterated(s.cluster(), s.deployed(), interleaved(iterations));
    sched::TaskGraph unmarked;
    if (!reclaim) unmarked = without_transients(iterated.graph());
    sched::TaskGraph& graph = reclaim ? iterated.graph() : unmarked;
    if (per_iteration != nullptr) {
      *per_iteration = iteration_intermediate_bytes(s.cluster(), iterated.graph(), 2);
    }
    sched::Engine engine(s.cluster(), {});
    sched::Report report;
    {
      ResidentPeak sampler(s.cluster());
      report = engine.run(graph);
      *peak = sampler.stop();
    }
    EXPECT_TRUE(report.faults.ok()) << report.faults.to_text();
    EXPECT_EQ(report.tasks_executed, graph.size());
    if (reclaim) {
      for (const std::string& name : iterated.graph().transient_arrays()) {
        EXPECT_EQ(s.holders(name), 0) << name << " outlived its last reader";
        EXPECT_TRUE(s.cluster().node(0).array_meta(name).has_value())
            << "reclaiming drops blocks, not the catalog entry";
      }
      for (int u = 0; u < 4; ++u) {
        EXPECT_EQ(s.holders(BlockGrid::vector_name("x", iterations, u)), 1) << "x^N survives";
      }
    }
    return iterated.gather_result();
  };

  std::uint64_t peak3 = 0;
  std::uint64_t peak12 = 0;
  std::uint64_t peak12_unmarked = 0;
  std::uint64_t per_iteration = 0;
  solve(3, true, &peak3, &per_iteration);
  const std::vector<double> got = solve(12, true, &peak12, nullptr);
  const std::vector<double> reference = solve(12, false, &peak12_unmarked, nullptr);

  ASSERT_GT(per_iteration, 0u);
  EXPECT_LE(peak12, peak3 + per_iteration)
      << "12 iterations must not hold more than one extra iteration of intermediates";
  EXPECT_GT(peak12_unmarked, peak3 + 9 * per_iteration)
      << "sanity: without reclamation every iteration's intermediates stay resident";
  EXPECT_TRUE(bitwise_equal(got, reference)) << "reclaiming must not change a single bit";
}

TEST(TransientIntermediates, JobManagerNamespacedSolveReclaims) {
  constexpr int kIterations = 6;
  std::vector<double> plain;
  {
    TwoNodeSolve s("transient_plain");
    IteratedSpmv iterated(s.cluster(), s.deployed(), interleaved(kIterations));
    sched::Engine engine(s.cluster(), {});
    iterated.run(engine);
    plain = iterated.gather_result();
  }

  TwoNodeSolve s("transient_jobs");
  IteratedSpmv iterated(s.cluster(), s.deployed(), interleaved(kIterations));
  sched::Engine engine(s.cluster(), {});
  jobs::JobManager manager(s.cluster(), engine, jobs::JobManagerConfig{});
  jobs::JobOptions options;
  options.namespace_arrays = true;
  const jobs::JobId id = manager.submit(iterated.graph(), options);
  const sched::Report report = manager.await(id);
  EXPECT_TRUE(report.faults.ok()) << report.faults.to_text();

  const std::string prefix = jobs::job_array_prefix(id);
  ASSERT_FALSE(iterated.graph().transient_arrays().empty());
  for (const std::string& name : iterated.graph().transient_arrays()) {
    EXPECT_EQ(name.rfind(prefix, 0), 0u) << name << " was not renamed with its job";
    EXPECT_EQ(s.holders(name), 0) << name << " outlived its last reader";
  }
  const auto got = spmv::gather_vector(s.cluster(), s.deployed().grid, prefix + "x", kIterations);
  EXPECT_TRUE(bitwise_equal(got, plain));

  // Cleanup frees the job's (renamed) names and skips nothing it still needs.
  iterated.cleanup_intermediates();
  for (const std::string& name : iterated.graph().transient_arrays()) {
    EXPECT_FALSE(s.cluster().node(0).array_meta(name).has_value()) << name;
  }
  iterated.cleanup_intermediates();  // a second call finds nothing left to delete
}

}  // namespace
}  // namespace dooc::solver
