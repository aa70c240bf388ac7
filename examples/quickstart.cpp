// Quickstart: out-of-core iterated SpMV in ~60 lines of user code.
//
// What happens:
//  1. a virtual 3-node DOoC cluster is brought up (each node gets a scratch
//     directory — its "SSD");
//  2. a sparse matrix is generated with the paper's uniform-gap model, cut
//     into a 3x3 grid of binary-CSR sub-matrix files and deployed across
//     the nodes' scratch directories;
//  3. four SpMV iterations are described as a task DAG (multiplies +
//     reductions) and executed by the hierarchical data-aware scheduler,
//     with sub-matrices streaming through the storage layer under a small
//     memory budget;
//  4. the result is verified against an in-memory reference.
//
// Run:  ./quickstart [--n=4096] [--nodes=3] [--iterations=4] [--budget-mb=24]
//                    [--trace-out=run.json]
#include <cstdio>
#include <filesystem>

#include "common/options.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/engine.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/generator.hpp"

using namespace dooc;

int main(int argc, char** argv) {
  const Options opts = Options::from_args(argc, argv);
  const std::uint64_t n = static_cast<std::uint64_t>(opts.get_int("n", 4096));
  const int nodes = static_cast<int>(opts.get_int("nodes", 3));
  const int iterations = static_cast<int>(opts.get_int("iterations", 4));
  const auto budget = static_cast<std::uint64_t>(opts.get_int("budget-mb", 24)) << 20;
  // Chrome trace of the run — open in chrome://tracing or ui.perfetto.dev,
  // or summarize with tools/dooc_tracecat.
  const std::string trace_out = opts.get("trace-out", "");
  if (!trace_out.empty()) obs::TraceSession::instance().start(trace_out);

  // 1. Bring up the cluster: storage layer + scratch directories.
  const std::string scratch =
      (std::filesystem::temp_directory_path() / ("dooc_quickstart_" + std::to_string(::getpid())))
          .string();
  storage::StorageConfig cfg;
  cfg.scratch_root = scratch;
  cfg.memory_budget = budget;
  storage::StorageCluster cluster(nodes, cfg);
  std::printf("cluster up: %d nodes, %s memory budget each, scratch at %s\n", nodes,
              format_bytes(static_cast<double>(budget)).c_str(), scratch.c_str());

  // 2. Generate and deploy the matrix (paper's uniform-gap model).
  const double d = spmv::choose_gap_parameter(n, n, n * 24);
  spmv::CsrMatrix matrix = spmv::generate_uniform_gap(n, n, d, /*seed=*/2012);
  for (auto& v : matrix.values) v *= 0.05;  // keep iterates bounded
  const auto owner = spmv::column_strip_owner(nodes);
  const auto deployed = spmv::deploy_matrix(cluster, matrix, /*k=*/3, owner);
  std::printf("deployed %llu x %llu matrix (%.1f M non-zeros, %s) as a 3x3 grid of CSR files\n",
              static_cast<unsigned long long>(n), static_cast<unsigned long long>(n),
              static_cast<double>(matrix.nnz()) / 1e6,
              format_bytes(static_cast<double>(deployed.total_bytes())).c_str());

  // 3. Seed x^0 and run the iterated SpMV DAG.
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 + 1e-4 * static_cast<double>(i % 97); });
  solver::IteratedSpmvConfig config;
  config.iterations = iterations;
  config.mode = solver::ReductionMode::Interleaved;
  solver::IteratedSpmv driver(cluster, deployed, config);
  sched::Engine engine(cluster, {});
  const auto report = driver.run(engine);

  std::printf("\nexecuted %llu tasks in %.3f s (%.2f GFlop/s)\n",
              static_cast<unsigned long long>(report.tasks_executed), report.makespan,
              report.gflops());
  std::printf("storage: %llu disk reads (%s), %llu evictions, %s fetched between nodes\n",
              static_cast<unsigned long long>(report.storage.disk_reads),
              format_bytes(static_cast<double>(report.storage.disk_read_bytes)).c_str(),
              static_cast<unsigned long long>(report.storage.evictions),
              format_bytes(static_cast<double>(report.cross_node_bytes)).c_str());

  if (!trace_out.empty()) {
    const auto events = obs::TraceSession::instance().stop();
    std::printf("\ntrace: %zu events written to %s (open in ui.perfetto.dev, or run\n"
                "       dooc_tracecat %s for a summary)\n",
                events.size(), trace_out.c_str(), trace_out.c_str());
    std::printf("\nobs metrics snapshot:\n%s",
                obs::Metrics::instance().snapshot().to_text().c_str());
  }

  // 4. Verify against a dense in-memory reference.
  std::vector<double> x(n);
  for (std::uint64_t i = 0; i < n; ++i) x[i] = 1.0 + 1e-4 * static_cast<double>(i % 97);
  std::vector<double> y(n);
  for (int it = 0; it < iterations; ++it) {
    matrix.multiply(x, y);
    x.swap(y);
  }
  const auto got = driver.gather_result();
  double max_err = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    max_err = std::max(max_err, std::abs(got[i] - x[i]) / (1.0 + std::abs(x[i])));
  }
  std::printf("verification vs in-memory reference: max relative error %.2e — %s\n", max_err,
              max_err < 1e-9 ? "OK" : "MISMATCH");

  std::filesystem::remove_all(scratch);
  return max_err < 1e-9 ? 0 : 1;
}
