#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "solver/iterated_spmv.hpp"
#include "solver/krylov.hpp"
#include "spmv/codec.hpp"
#include "spmv/generator.hpp"

namespace perfbench {

namespace st = dooc::storage;
namespace sp = dooc::spmv;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;
/// Diagonal of the Lanczos banded matrix (spmv::generate_banded): above twice
/// the off-diagonal row sum for the half bandwidths used here, so the matrix
/// is SPD.
constexpr double kBandDiagonal = 4.0;
constexpr double kTolerance = 1e-9;

// Sizes: see perfbench/NOTES.md for why each workload exists and what it
// is predicted to move.
const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {.name = "spmv-ooc", .nodes = 1, .slots = 1, .split = 2, .k = 3, .n = 1ull << 20,
       .matrix = MatrixKind::UniformGap, .row_nnz = 21, .budget_per_node = 64 * kMiB,
       .iterations = 20},
      {.name = "spmv-codec", .nodes = 1, .slots = 1, .split = 2, .k = 3, .n = 1ull << 19,
       .matrix = MatrixKind::PowerLaw, .row_nnz = 21, .budget_per_node = 32 * kMiB,
       .iterations = 8, .codec = true},
      {.name = "lanczos", .lanczos = true, .nodes = 2, .slots = 1, .split = 2, .k = 2,
       .n = 600000, .matrix = MatrixKind::Banded, .row_nnz = 5, .budget_per_node = 64 * kMiB,
       .iterations = 30},
      {.name = "spmv-fine", .nodes = 1, .slots = 1, .split = 1, .k = 16, .n = 1ull << 17,
       .matrix = MatrixKind::UniformGap, .row_nnz = 16, .budget_per_node = 1024 * kMiB,
       .iterations = 40},
  };
  return all;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  dooc::SplitMix64 rng(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull));
  return rng.next();
}

/// Sub-matrix (u, v) of a random (UniformGap or PowerLaw) workload matrix,
/// deterministic in the seed.
sp::CsrMatrix make_block(const Spec& spec, const sp::BlockGrid& grid, std::uint64_t seed, int u,
                         int v) {
  const std::uint64_t rows = grid.part_size(u);
  const std::uint64_t cols = grid.part_size(v);
  const std::uint64_t block_seed = mix(seed, static_cast<std::uint64_t>(u) * 1024 + v);
  // Values are scaled so that ||A x|| stays near ||x|| and the iterates
  // neither overflow nor vanish over a solve.
  const double scale = std::sqrt(3.0 / spec.row_nnz);
  sp::CsrMatrix m;
  if (spec.matrix == MatrixKind::PowerLaw) {
    m = sp::generate_power_law(rows, cols, spec.row_nnz / spec.k, 1.5, block_seed);
  } else {
    const auto target = static_cast<std::uint64_t>(static_cast<double>(rows) * spec.row_nnz /
                                                   spec.k);
    m = sp::generate_uniform_gap(rows, cols, sp::choose_gap_parameter(rows, cols, target),
                                 block_seed);
  }
  for (double& x : m.values) x *= scale;
  return m;
}

/// Whether a block read back from storage holds exactly the generated one.
bool same_block(const sp::CsrView& a, const sp::CsrMatrix& want) {
  const auto eq = [](auto got, const auto& ref) {
    return std::equal(got.begin(), got.end(), ref.begin(), ref.end());
  };
  return a.rows() == want.rows && eq(a.row_ptr(), want.row_ptr) &&
         eq(a.col_idx(), want.col_idx) && eq(a.values(), want.values);
}

double relative_error(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size() || want.empty()) return INFINITY;
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    diff = std::max(diff, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

/// x^N, streaming every block file once per iteration. On the first pass
/// each block read back (and decoded) is compared with the block generated
/// again from the seed, so a fault in the write path or the codec cannot
/// hide in both the solve and its reference; a difference sets `*deployed_ok`
/// to false.
std::vector<double> spmv_reference(const Spec& spec, Deployment& d, std::uint64_t seed,
                                   bool* deployed_ok) {
  const sp::BlockGrid& grid = d.matrix.grid;
  const int k = grid.k();
  std::vector<double> x(grid.n());
  for (std::uint64_t i = 0; i < grid.n(); ++i) x[i] = initial_value(seed, i);
  std::vector<double> y(grid.n());
  const int threads = std::min(4, k);
  std::atomic<bool> mismatch{false};
  for (int it = 0; it < spec.iterations; ++it) {
    std::fill(y.begin(), y.end(), 0.0);
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        try {
          for (int u = t; u < k; u += threads) {
            for (int v = 0; v < k; ++v) {
              const std::vector<std::byte> file = read_file(d.block_path(u, v));
              dooc::DataBuffer decoded;
              std::span<const std::byte> raw(file);
              if (sp::codec::is_encoded(raw)) {
                decoded = sp::codec::decode_block(raw, d.matrix.bytes_of(u, v));
                raw = {decoded.data(), decoded.size()};
              }
              const sp::CsrView a = sp::CsrView::from_bytes(raw);
              if (it == 0 && !same_block(a, make_block(spec, grid, seed, u, v))) {
                std::fprintf(stderr, "perfbench: block (%d, %d) read back differs from its "
                             "generator\n", u, v);
                mismatch = true;
              }
              const auto rp = a.row_ptr();
              const auto ci = a.col_idx();
              const auto val = a.values();
              const double* xv = x.data() + grid.part_begin(v);
              double* yu = y.data() + grid.part_begin(u);
              for (std::uint64_t r = 0; r < a.rows(); ++r) {
                double s = 0.0;
                for (std::uint64_t e = rp[r]; e < rp[r + 1]; ++e) s += val[e] * xv[ci[e]];
                yu[r] += s;
              }
            }
          }
        } catch (...) {
          errors[static_cast<std::size_t>(t)] = std::current_exception();
        }
      });
    }
    for (auto& th : pool) th.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    x.swap(y);
  }
  *deployed_ok = !mismatch;
  return x;
}

/// Eigenvalues of the symmetric tridiagonal matrix (alpha, beta) below x.
int sturm_count(const std::vector<double>& alpha, const std::vector<double>& beta, double x) {
  int count = 0;
  double q = 1.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    const double b2 = i > 0 ? beta[i - 1] * beta[i - 1] : 0.0;
    q = alpha[i] - x - (i > 0 ? b2 / q : 0.0);
    if (q == 0.0) q = -1e-300;
    if (q < 0.0) ++count;
  }
  return count;
}

/// The `count` lowest eigenvalues of a symmetric tridiagonal matrix, by
/// Sturm-sequence bisection (independent of solver/tridiag).
std::vector<double> lowest_eigenvalues(const std::vector<double>& alpha,
                                       const std::vector<double>& beta, int count) {
  double lo = INFINITY;
  double hi = -INFINITY;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    const double r = (i > 0 ? std::abs(beta[i - 1]) : 0.0) +
                     (i + 1 < alpha.size() ? std::abs(beta[i]) : 0.0);
    lo = std::min(lo, alpha[i] - r);
    hi = std::max(hi, alpha[i] + r);
  }
  std::vector<double> out;
  for (int e = 0; e < count && e < static_cast<int>(alpha.size()); ++e) {
    double a = lo;
    double b = hi;
    for (int step = 0; step < 200 && b - a > 1e-15 * std::max(1.0, std::abs(b)); ++step) {
      const double mid = 0.5 * (a + b);
      if (sturm_count(alpha, beta, mid) > e) {
        b = mid;
      } else {
        a = mid;
      }
    }
    out.push_back(0.5 * (a + b));
  }
  return out;
}

/// Lanczos with full reorthogonalization on dense vectors: the recurrence of
/// solver::Lanczos with its own banded multiply and eigenvalue solver.
std::vector<double> lanczos_reference(const Spec& spec, std::uint64_t seed) {
  const std::uint64_t n = spec.n;
  const auto hb = static_cast<std::uint64_t>(spec.row_nnz);
  const auto dot = [](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  };
  const auto axpy = [](std::vector<double>& y, double c, const std::vector<double>& x) {
    for (std::size_t i = 0; i < y.size(); ++i) y[i] += c * x[i];
  };
  const auto multiply = [&](const std::vector<double>& x) {
    std::vector<double> y(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      double s = kBandDiagonal * x[i];
      for (std::uint64_t dist = 1; dist <= hb; ++dist) {
        const double w = 1.0 / (1.0 + static_cast<double>(dist));
        if (i >= dist) s += w * x[i - dist];
        if (i + dist < n) s += w * x[i + dist];
      }
      y[i] = s;
    }
    return y;
  };

  std::vector<std::vector<double>> basis;
  {
    dooc::SplitMix64 rng(seed);
    std::vector<double> v0(n);
    for (auto& x : v0) x = rng.next_double() - 0.5;
    const double norm = std::sqrt(dot(v0, v0));
    for (auto& x : v0) x /= norm;
    basis.push_back(std::move(v0));
  }
  std::vector<double> alpha;
  std::vector<double> beta;
  const auto steps = static_cast<std::size_t>(spec.iterations);
  for (std::size_t j = 0; j < steps; ++j) {
    std::vector<double> w = multiply(basis[j]);
    alpha.push_back(dot(w, basis[j]));
    axpy(w, -alpha.back(), basis[j]);
    if (j > 0) axpy(w, -beta[j - 1], basis[j - 1]);
    for (std::size_t i = 0; i <= j; ++i) {
      const double c = dot(w, basis[i]);
      if (c != 0.0) axpy(w, -c, basis[i]);
    }
    if (j + 1 == steps) break;
    const double b = std::sqrt(dot(w, w));
    for (auto& x : w) x /= b;
    beta.push_back(b);
    basis.push_back(std::move(w));
  }
  return lowest_eigenvalues(alpha, beta, kRitzValues);
}

st::StorageStats stats_delta(const st::StorageStats& a, const st::StorageStats& b) {
  st::StorageStats d;
  d.disk_reads = a.disk_reads - b.disk_reads;
  d.disk_read_bytes = a.disk_read_bytes - b.disk_read_bytes;
  d.disk_writes = a.disk_writes - b.disk_writes;
  d.disk_write_bytes = a.disk_write_bytes - b.disk_write_bytes;
  d.remote_fetches = a.remote_fetches - b.remote_fetches;
  d.remote_fetch_bytes = a.remote_fetch_bytes - b.remote_fetch_bytes;
  d.evictions = a.evictions - b.evictions;
  d.evicted_bytes = a.evicted_bytes - b.evicted_bytes;
  d.decoded_blocks = a.decoded_blocks - b.decoded_blocks;
  d.decoded_bytes = a.decoded_bytes - b.decoded_bytes;
  d.disk_read_seconds = a.disk_read_seconds - b.disk_read_seconds;
  d.decode_seconds = a.decode_seconds - b.decode_seconds;
  return d;
}

std::uint64_t counter_total(const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& [key, entry] : dooc::obs::Metrics::instance().snapshot().entries) {
    if (key.name == name) total += entry.count;
  }
  return total;
}

/// Polls the cluster's resident bytes on a side thread while a solve runs.
class ResidentSampler {
 public:
  ResidentSampler(st::StorageCluster& cluster, bool enabled) : cluster_(cluster) {
    if (enabled) {
      thread_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          peak_ = std::max(peak_, cluster_.total_resident_bytes());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
  }
  ResidentSampler(const ResidentSampler&) = delete;
  ResidentSampler& operator=(const ResidentSampler&) = delete;
  ~ResidentSampler() { stop(); }

  /// Peak resident MiB seen (0 when disabled).
  double stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
      peak_ = std::max(peak_, cluster_.total_resident_bytes());
    }
    return static_cast<double>(peak_) / static_cast<double>(kMiB);
  }

 private:
  st::StorageCluster& cluster_;
  std::atomic<bool> stop_{false};
  std::uint64_t peak_ = 0;
  std::thread thread_;
};

Solve run_spmv(const Spec& spec, Deployment& d, dooc::sched::Engine& engine,
               const Reference& ref, bool sample_resident) {
  dooc::solver::IteratedSpmvConfig cfg;
  cfg.iterations = spec.iterations;
  cfg.mode = dooc::solver::ReductionMode::Interleaved;
  cfg.inter_iteration_sync = true;
  cfg.vector_base = "x";
  dooc::solver::IteratedSpmv spmv(*d.cluster, d.matrix, cfg);

  Solve s;
  s.iterations = spec.iterations;
  s.attempted = spmv.graph().size();
  dooc::sched::Report report;
  bool ran = false;
  {
    ResidentSampler sampler(*d.cluster, sample_resident);
    reset_peak_rss();
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    try {
      report = spmv.run(engine);
      ran = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: solve failed: %s\n", e.what());
    }
    s.wall_s = now_s() - t0;
    s.cpu_s = process_cpu_s() - c0;
    s.rss_peak_mib = peak_rss_mib();
    s.resident_peak_mib = sampler.stop();
  }
  if (ran) {
    s.tasks = report.tasks_executed;
    s.failed = report.faults.failed.size() + report.faults.poisoned;
    s.storage = report.storage;
    s.error = relative_error(spmv.gather_result(), ref.values);
    s.correct = ref.deployed_ok && s.failed == 0 && s.error <= kTolerance;
  }
  if (!s.correct) s.failed = s.attempted;
  // Drop every array the solve wrote so the next solve reuses the names.
  spmv.cleanup_intermediates();
  for (int u = 0; u < d.matrix.grid.k(); ++u) {
    d.cluster->node(0).delete_array(sp::BlockGrid::vector_name("x", spec.iterations, u));
  }
  return s;
}

Solve run_lanczos(const Spec& spec, Deployment& d, dooc::sched::Engine& engine,
                  const Reference& ref, std::uint64_t seed, int solve_id, bool sample_resident) {
  dooc::solver::LanczosOptions opts;
  opts.max_iterations = spec.iterations;
  opts.num_eigenvalues = kRitzValues;
  opts.tolerance = 0.0;  // unreachable: every solve does exactly max_iterations steps
  opts.seed = seed;
  opts.base = "lz" + std::to_string(solve_id);
  dooc::solver::Lanczos lanczos(*d.cluster, d.matrix, engine, opts);

  Solve s;
  s.attempted = static_cast<std::uint64_t>(spec.iterations);
  const st::StorageStats before = d.cluster->total_stats();
  const std::uint64_t tasks0 = counter_total("sched.tasks_executed");
  const std::uint64_t faults0 = counter_total("sched.load_faults");
  dooc::solver::LanczosResult result;
  bool ran = false;
  {
    ResidentSampler sampler(*d.cluster, sample_resident);
    reset_peak_rss();
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    try {
      result = lanczos.run();
      ran = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: Lanczos failed: %s\n", e.what());
    }
    s.wall_s = now_s() - t0;
    s.cpu_s = process_cpu_s() - c0;
    s.rss_peak_mib = peak_rss_mib();
    s.resident_peak_mib = sampler.stop();
  }
  s.storage = stats_delta(d.cluster->total_stats(), before);
  s.tasks = counter_total("sched.tasks_executed") - tasks0;
  if (ran) {
    s.iterations = result.iterations;
    s.ritz = result.eigenvalues;
    s.error = relative_error(result.eigenvalues, ref.values);
    s.correct = result.iterations == spec.iterations &&
                counter_total("sched.load_faults") == faults0 && s.error <= kTolerance;
  }
  if (!s.correct) s.failed = s.attempted;
  dooc::solver::DistVectorOps vecs(*d.cluster, d.matrix.grid,
                                   [&m = d.matrix](int u, int v) { return m.owner_of(u, v); });
  for (int i = 0; i <= spec.iterations; ++i) {
    if (vecs.exists(opts.base, i)) vecs.remove(opts.base, i);
  }
  return s;
}

}  // namespace

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> spec_names() {
  std::vector<std::string> out;
  for (const Spec& s : specs()) out.push_back(s.name);
  return out;
}

Deployment::~Deployment() {
  cluster.reset();
  std::error_code ec;
  if (!scratch.empty()) std::filesystem::remove_all(scratch, ec);
}

std::string Deployment::block_path(int u, int v) {
  return cluster->node(matrix.owner_of(u, v)).scratch_dir() + "/" + matrix.name_of(u, v);
}

std::vector<std::string> Deployment::block_paths() {
  std::vector<std::string> out;
  for (int u = 0; u < matrix.grid.k(); ++u) {
    for (int v = 0; v < matrix.grid.k(); ++v) out.push_back(block_path(u, v));
  }
  return out;
}

std::uint64_t Deployment::budget_total() const {
  std::uint64_t total = 0;
  for (int i = 0; i < cluster->num_nodes(); ++i) total += cluster->node(i).config().memory_budget;
  return total;
}

double initial_value(std::uint64_t seed, std::uint64_t i) {
  return 0.5 + static_cast<double>(mix(seed, i) >> 11) * 0x1.0p-53;
}

std::unique_ptr<Deployment> deploy(const Spec& spec, std::uint64_t seed,
                                   const std::string& scratch, SpanLog& spans) {
  auto d = std::make_unique<Deployment>();
  d->scratch = scratch;
  st::StorageConfig cfg;
  cfg.scratch_root = scratch;
  cfg.memory_budget = spec.budget_per_node;
  sp::codec::CodecConfig codec;
  if (spec.codec) {
    codec.mode = sp::codec::Mode::On;
    codec.read_ahead = 1;
  }
  cfg.codec = codec;
  cfg.replication = st::ReplicationConfig{};
  d->cluster = std::make_unique<st::StorageCluster>(spec.nodes, cfg);

  const sp::BlockGrid grid(spec.n, spec.k);
  const sp::BlockOwner owner = sp::column_strip_owner(spec.nodes);
  if (spec.matrix == MatrixKind::Banded) {
    sp::CsrMatrix global;
    {
      auto gen = spans.span("generate");
      global = sp::generate_banded(spec.n, static_cast<std::uint64_t>(spec.row_nnz),
                                   kBandDiagonal);
    }
    auto span = spans.span("deploy");
    d->matrix = sp::deploy_matrix(*d->cluster, global, spec.k, owner);
  } else {
    auto span = spans.span("deploy");
    d->matrix = sp::deploy_generated(*d->cluster, grid, owner, [&](int u, int v) {
      auto gen = spans.span("generate");
      return make_block(spec, grid, seed, u, v);
    });
  }
  if (!spec.lanczos) {
    auto span = spans.span("create_x0");
    sp::create_distributed_vector(*d->cluster, grid, owner, "x", 0,
                                  [seed](std::uint64_t i) { return initial_value(seed, i); });
  }
  return d;
}

dooc::sched::EngineConfig engine_config(const Spec& spec) {
  dooc::sched::EngineConfig cfg;
  cfg.compute_slots_per_node = spec.slots;
  cfg.split_threads_per_node = spec.split;
  return cfg;
}

Reference compute_reference(const Spec& spec, Deployment& d, std::uint64_t seed) {
  Reference ref;
  ref.values = spec.lanczos ? lanczos_reference(spec, seed)
                            : spmv_reference(spec, d, seed, &ref.deployed_ok);
  return ref;
}

Solve run_solve(const Spec& spec, Deployment& d, dooc::sched::Engine& engine,
                const Reference& ref, std::uint64_t seed, int solve_id, bool sample_resident) {
  return spec.lanczos ? run_lanczos(spec, d, engine, ref, seed, solve_id, sample_resident)
                      : run_spmv(spec, d, engine, ref, sample_resident);
}

}  // namespace perfbench
