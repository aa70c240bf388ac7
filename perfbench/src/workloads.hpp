// The benchmark's workloads: their sizes, input generation (everything the
// library sees is derived from --seed), deployment onto a real
// StorageCluster, the timed solves, and the in-memory references each solve
// is checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sched/engine.hpp"
#include "spmv/block_grid.hpp"

namespace perfbench {

enum class MatrixKind { UniformGap, PowerLaw, Banded };

struct Spec {
  std::string name;
  bool lanczos = false;
  /// nodes × slots × split is the compute-thread count; every workload
  /// keeps it at or below the 4 cores of the reference host.
  int nodes = 2;
  int slots = 1;
  int split = 1;
  int k = 4;  ///< K×K block grid
  std::uint64_t n = 0;
  MatrixKind matrix = MatrixKind::UniformGap;
  /// Mean non-zeros per row (UniformGap, PowerLaw) or half bandwidth (Banded).
  double row_nnz = 0.0;
  std::uint64_t budget_per_node = 0;
  /// Fixed work per solve: SpMV iterations or Lanczos steps.
  int iterations = 0;
  bool codec = false;
};

[[nodiscard]] const Spec* find_spec(const std::string& name);
[[nodiscard]] std::vector<std::string> spec_names();

/// One deployed instance of a workload: a cluster with its own scratch
/// directory, the matrix deployed into it and (SpMV workloads) the initial
/// vector x^0. Destruction tears the cluster down and removes the scratch.
struct Deployment {
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();

  std::string scratch;
  std::unique_ptr<dooc::storage::StorageCluster> cluster;
  dooc::spmv::DeployedMatrix matrix;

  /// Path of the file backing sub-matrix (u, v).
  [[nodiscard]] std::string block_path(int u, int v);
  [[nodiscard]] std::vector<std::string> block_paths();
  [[nodiscard]] std::uint64_t budget_total() const;
};

/// Generate + deploy + initial vector: the work `setup_s` times.
std::unique_ptr<Deployment> deploy(const Spec& spec, std::uint64_t seed,
                                   const std::string& scratch, SpanLog& spans);

[[nodiscard]] dooc::sched::EngineConfig engine_config(const Spec& spec);

/// x^0 of the SpMV workloads, element i.
[[nodiscard]] double initial_value(std::uint64_t seed, std::uint64_t i);

/// Outcome of one timed solve.
struct Solve {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_peak_mib = 0.0;
  double resident_peak_mib = 0.0;  ///< sampled only when requested
  std::uint64_t attempted = 0;     ///< tasks (SpMV) or Lanczos steps
  std::uint64_t failed = 0;
  std::uint64_t tasks = 0;
  int iterations = 0;
  bool correct = false;
  double error = 0.0;  ///< max relative error against the reference
  dooc::storage::StorageStats storage;  ///< cluster delta over the solve
  std::vector<double> ritz;             ///< Lanczos only
};

/// The in-memory reference a solve is checked against.
struct Reference {
  std::vector<double> values;  ///< x^N (SpMV) or the lowest Ritz values (Lanczos)
  /// SpMV: every deployed block read back equals the block generated again
  /// from the seed. A solve against a reference without it is failed.
  bool deployed_ok = true;
};

/// SpMV: x^N from streaming every sub-matrix file once per iteration (the
/// whole matrix is never resident), after checking each block read back
/// against its generator. Lanczos: the same recurrence on dense vectors with
/// an independent banded multiply and bisection eigenvalues.
Reference compute_reference(const Spec& spec, Deployment& d, std::uint64_t seed);

/// One fixed-work solve on the real engine, checked against `ref`.
/// `solve_id` keeps array names unique; `sample_resident` runs a sampler
/// thread over total_resident_bytes() for the storage ledger.
Solve run_solve(const Spec& spec, Deployment& d, dooc::sched::Engine& engine,
                const Reference& ref, std::uint64_t seed, int solve_id, bool sample_resident);

/// Number of Ritz values compared.
constexpr int kRitzValues = 5;
/// Start-vector seed of the Lanczos anchor solve, whose Ritz values are
/// checked against perfbench/lanczos_ritz.txt.
constexpr std::uint64_t kAnchorSeed = 7;

}  // namespace perfbench
