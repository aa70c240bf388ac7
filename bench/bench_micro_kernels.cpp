// Micro-kernel bench: a format × partitioner sweep of the SpMV kernel
// layer (CSR vs SELL-C-σ, equal-row vs nnz-balanced splits) followed by
// the google-benchmark suite over the hot primitives.
//
// The sweep reports two timings per kernel:
//  * wall     — one threaded multiply, as the engine runs it;
//  * critical — each partition range timed serially, taking the maximum.
// The critical path is what a perfectly scheduled pool would pay, so it
// exposes load imbalance deterministically even on machines without
// enough cores to show it in wall time. Results are persisted to
// BENCH_kernels.json; the process exits non-zero if the balanced split
// or SELL format loses against the acceptance thresholds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "bench_util.hpp"
#include "common/crc32.hpp"
#include "common/thread_pool.hpp"
#include "common/rng.hpp"
#include "simcluster/flow_network.hpp"
#include "spmv/codec.hpp"
#include "spmv/generator.hpp"
#include "spmv/kernels.hpp"
#include "spmv/partition.hpp"
#include "spmv/sell.hpp"
#include "storage/storage_cluster.hpp"

namespace {

using namespace dooc;

// ---------------------------------------------------------------------------
// Format × partitioner sweep
// ---------------------------------------------------------------------------

/// Rows reordered by descending population — the degree-sorted layout of
/// real graph/CI matrices, where an equal-row split hands the first worker
/// nearly all of the work.
spmv::CsrMatrix sort_rows_by_length_desc(const spmv::CsrMatrix& m) {
  std::vector<std::uint64_t> order(m.rows);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return m.row_ptr[a + 1] - m.row_ptr[a] > m.row_ptr[b + 1] - m.row_ptr[b];
  });
  spmv::CsrMatrix out;
  out.rows = m.rows;
  out.cols = m.cols;
  out.row_ptr.reserve(m.rows + 1);
  out.row_ptr.push_back(0);
  out.col_idx.reserve(m.nnz());
  out.values.reserve(m.nnz());
  for (std::uint64_t r : order) {
    for (std::uint64_t k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
      out.col_idx.push_back(m.col_idx[k]);
      out.values.push_back(m.values[k]);
    }
    out.row_ptr.push_back(out.col_idx.size());
  }
  return out;
}

struct SweepShape {
  std::string name;
  spmv::CsrMatrix matrix;
};

struct SweepResult {
  std::string shape;
  std::string kernel;
  double wall_s = 0.0;
  double critical_s = 0.0;
  double imbalance = 1.0;
};

constexpr int kReps = 5;          ///< best-of-N to shed scheduler noise
constexpr std::size_t kParts = 4; ///< partition count for the split kernels

template <typename Fn>
double best_of(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) best = std::min(best, bench::time_seconds(fn));
  return best;
}

/// Max over ranges of the serial time of that range — the pool's critical
/// path under perfect scheduling.
template <typename RangeFn>
double critical_path(const std::vector<spmv::RowRange>& ranges, RangeFn&& run_range) {
  double cp = 0.0;
  for (const auto& r : ranges) {
    if (r.size() == 0) continue;
    cp = std::max(cp, best_of([&] { run_range(r); }));
  }
  return cp;
}

std::vector<SweepResult> run_shape(const SweepShape& shape, ThreadPool& pool) {
  const spmv::CsrMatrix& m = shape.matrix;
  std::vector<std::byte> csr_bytes;
  spmv::serialize_csr(m, csr_bytes);
  const auto view = spmv::CsrView::from_bytes(csr_bytes);

  const spmv::SellMatrix sell = spmv::build_sell(m, 8, 256);
  std::vector<std::byte> sell_bytes;
  spmv::serialize_sell(sell, sell_bytes);
  const auto sell_view = spmv::SellView::from_bytes(sell_bytes);

  std::vector<double> x(m.cols), y(m.rows);
  SplitMix64 rng(0x5EED);
  for (auto& v : x) v = rng.next_double() - 0.5;

  const auto equal = spmv::equal_row_ranges(m.rows, kParts);
  const auto balanced = spmv::balanced_row_ranges(m.row_ptr, kParts);
  const auto sell_chunks = spmv::balanced_row_ranges(sell_view.chunk_ptr(), kParts);

  spmv::KernelConfig eq_cfg, bal_cfg;
  eq_cfg.balance = spmv::BalanceMode::EqualRows;
  eq_cfg.serial_nnz_threshold = 0;
  bal_cfg.balance = spmv::BalanceMode::BalancedNnz;
  bal_cfg.serial_nnz_threshold = 0;

  std::vector<SweepResult> out;
  auto add = [&](std::string kernel, double wall, double critical, double imbalance) {
    out.push_back({shape.name, std::move(kernel), wall, critical, imbalance});
  };

  add("csr-serial", best_of([&] { view.multiply(x, y); }),
      best_of([&] { view.multiply(x, y); }), 1.0);
  add("csr-equal",
      best_of([&] { spmv::multiply_parallel(view, x, y, pool, eq_cfg); }),
      critical_path(equal, [&](const spmv::RowRange& r) { view.multiply_rows(x, y, r.begin, r.end); }),
      spmv::partition_imbalance(m.row_ptr, equal));
  add("csr-balanced",
      best_of([&] { spmv::multiply_parallel(view, x, y, pool, bal_cfg); }),
      critical_path(balanced,
                    [&](const spmv::RowRange& r) { view.multiply_rows(x, y, r.begin, r.end); }),
      spmv::partition_imbalance(m.row_ptr, balanced));
  add("sell-serial", best_of([&] { sell_view.multiply(x, y); }),
      best_of([&] { sell_view.multiply(x, y); }), 1.0);
  add("sell-balanced",
      best_of([&] { spmv::multiply_parallel(sell_view, x, y, pool, bal_cfg); }),
      critical_path(sell_chunks,
                    [&](const spmv::RowRange& r) {
                      sell_view.multiply_chunks(x, y, r.begin, r.end);
                    }),
      spmv::partition_imbalance(sell_view.chunk_ptr(), sell_chunks));
  return out;
}

double find_critical(const std::vector<SweepResult>& rs, const std::string& shape,
                     const std::string& kernel) {
  for (const auto& r : rs) {
    if (r.shape == shape && r.kernel == kernel) return r.critical_s;
  }
  std::fprintf(stderr, "sweep result missing: %s/%s\n", shape.c_str(), kernel.c_str());
  std::exit(2);
}

int run_kernel_sweep() {
  bench::section("SpMV kernel sweep: format x partitioner");

  std::vector<SweepShape> shapes;
  const std::uint64_t n = 16384;
  const double d = spmv::choose_gap_parameter(n, n, n * 64);
  shapes.push_back({"uniform", spmv::generate_uniform_gap(n, n, d, 0xA11CE)});
  shapes.push_back(
      {"skewed", sort_rows_by_length_desc(spmv::generate_power_law(n, n, 64.0, 1.5, 0xCAFE))});

  ThreadPool pool(kParts);
  bench::Table table({"shape", "kernel", "nnz", "wall ms", "critical ms", "GFLOP/s(crit)",
                      "imbalance"});
  bench::JsonReport report;
  report.meta("bench", "kernels");
  report.meta("parts", static_cast<std::uint64_t>(kParts));
  report.meta("reps", static_cast<std::uint64_t>(kReps));

  std::vector<SweepResult> all;
  for (const auto& shape : shapes) {
    const double flops = 2.0 * static_cast<double>(shape.matrix.nnz());
    for (const auto& r : run_shape(shape, pool)) {
      table.add_row({r.shape, r.kernel, std::to_string(shape.matrix.nnz()),
                     bench::fmt("%.3f", r.wall_s * 1e3), bench::fmt("%.3f", r.critical_s * 1e3),
                     bench::fmt("%.2f", flops / r.critical_s * 1e-9),
                     bench::fmt("%.2f", r.imbalance)});
      report.add_record()
          .field("shape", r.shape)
          .field("kernel", r.kernel)
          .field("rows", shape.matrix.rows)
          .field("nnz", shape.matrix.nnz())
          .field("wall_s", r.wall_s)
          .field("critical_s", r.critical_s)
          .field("gflops_critical", flops / r.critical_s * 1e-9)
          .field("imbalance", r.imbalance);
      all.push_back(r);
    }
  }
  table.print();

  const std::string artifact = "BENCH_kernels.json";
  if (!report.write(artifact)) {
    std::fprintf(stderr, "cannot write %s\n", artifact.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", artifact.c_str());

  // Acceptance: the balanced split must never lose to the serial kernel on
  // the critical path, and must win clearly where the equal split starves.
  int failures = 0;
  auto expect = [&](bool ok, const char* what, double lhs, double rhs) {
    std::printf("%-58s %8.3f vs %8.3f ms  [%s]\n", what, lhs * 1e3, rhs * 1e3,
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };
  const double cs_u = find_critical(all, "uniform", "csr-serial");
  const double cb_u = find_critical(all, "uniform", "csr-balanced");
  const double ce_s = find_critical(all, "skewed", "csr-equal");
  const double cb_s = find_critical(all, "skewed", "csr-balanced");
  const double ss_u = find_critical(all, "uniform", "sell-serial");
  const double sb_s = find_critical(all, "skewed", "sell-balanced");
  expect(cb_u <= cs_u, "uniform: balanced critical path <= serial", cb_u, cs_u);
  expect(cb_s * 1.15 <= ce_s, "skewed: balanced beats equal split by >= 1.15x", cb_s, ce_s);
  expect(ss_u <= cs_u * 1.25, "uniform: SELL serial within 1.25x of CSR serial", ss_u, cs_u);
  expect(sb_s * 1.15 <= ce_s, "skewed: SELL balanced beats CSR equal by >= 1.15x", sb_s, ce_s);
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// google-benchmark suite
// ---------------------------------------------------------------------------

const spmv::CsrMatrix& test_matrix() {
  static const spmv::CsrMatrix m = spmv::generate_uniform_gap(8192, 8192, 4.0, 0xbe9c);
  return m;
}

const std::vector<std::byte>& test_matrix_bytes() {
  static const std::vector<std::byte> bytes = [] {
    std::vector<std::byte> b;
    spmv::serialize_csr(test_matrix(), b);
    return b;
  }();
  return bytes;
}

const std::vector<std::byte>& test_matrix_sell_bytes() {
  static const std::vector<std::byte> bytes = [] {
    std::vector<std::byte> b;
    spmv::serialize_sell(spmv::build_sell(test_matrix(), 8, 256), b);
    return b;
  }();
  return bytes;
}

void BM_SpmvSerial(benchmark::State& state) {
  const auto view = spmv::CsrView::from_bytes(test_matrix_bytes());
  std::vector<double> x(view.cols(), 1.0), y(view.rows());
  for (auto _ : state) {
    view.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(view.nnz()));
}
BENCHMARK(BM_SpmvSerial);

void BM_SpmvSplit(benchmark::State& state) {
  const auto view = spmv::CsrView::from_bytes(test_matrix_bytes());
  std::vector<double> x(view.cols(), 1.0), y(view.rows());
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  spmv::KernelConfig cfg;
  cfg.balance = state.range(1) ? spmv::BalanceMode::BalancedNnz : spmv::BalanceMode::EqualRows;
  for (auto _ : state) {
    spmv::multiply_parallel(view, x, y, pool, cfg);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(view.nnz()));
}
// The work runs on pool threads, not the benchmark thread: rates must come
// from wall time, or the idle caller's CPU time inflates them.
BENCHMARK(BM_SpmvSplit)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->ArgNames({"threads", "balanced"})
    ->UseRealTime();

void BM_SpmvSell(benchmark::State& state) {
  const auto view = spmv::SellView::from_bytes(test_matrix_sell_bytes());
  std::vector<double> x(view.cols(), 1.0), y(view.rows());
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    spmv::multiply_parallel(view, x, y, pool);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(view.nnz()));
}
BENCHMARK(BM_SpmvSell)->Arg(1)->Arg(4)->ArgName("threads")->UseRealTime();

void BM_Blas1Dot(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  std::vector<double> a(n, 1.25), b(n, 0.75);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const double d = state.range(0) > 1 ? spmv::dot(a, b, pool) : spmv::dot(a, b);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * sizeof(double)));
}
BENCHMARK(BM_Blas1Dot)->Arg(1)->Arg(4)->ArgName("threads")->UseRealTime();

void BM_SumVectors(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  const auto parts_count = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> storage_parts(parts_count, std::vector<double>(n, 1.0));
  std::vector<std::span<const double>> parts(storage_parts.begin(), storage_parts.end());
  std::vector<double> out(n);
  for (auto _ : state) {
    spmv::sum_vectors(parts, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8 * (parts_count + 1)));
}
BENCHMARK(BM_SumVectors)->Arg(3)->Arg(5)->Arg(25);

void BM_CsrParse(benchmark::State& state) {
  const auto& bytes = test_matrix_bytes();
  for (auto _ : state) {
    auto view = spmv::CsrView::from_bytes(bytes);
    benchmark::DoNotOptimize(view.nnz());
  }
}
BENCHMARK(BM_CsrParse);

void BM_CsrSerialize(benchmark::State& state) {
  const auto& m = test_matrix();
  for (auto _ : state) {
    std::vector<std::byte> out;
    spmv::serialize_csr(m, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.serialized_bytes()));
}
BENCHMARK(BM_CsrSerialize);

void BM_SellBuild(benchmark::State& state) {
  const auto& m = test_matrix();
  for (auto _ : state) {
    auto sell = spmv::build_sell(m, 8, static_cast<std::uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(sell.padded_nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.nnz()));
}
BENCHMARK(BM_SellBuild)->Arg(1)->Arg(256)->ArgName("sigma");

void BM_StorageWriteSealRead(benchmark::State& state) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("dooc_bm_" + std::to_string(::getpid())))
                              .string();
  storage::StorageConfig cfg;
  cfg.scratch_root = dir;
  cfg.memory_budget = 1ull << 30;
  storage::StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t counter = 0;
  for (auto _ : state) {
    const std::string name = "bm" + std::to_string(counter++);
    node.create_array(name, bytes, bytes);
    {
      auto w = node.request_write({name, 0, bytes}).get();
      w.bytes()[0] = std::byte{1};
    }
    {
      auto r = node.request_read({name, 0, bytes}).get();
      benchmark::DoNotOptimize(r.bytes().data());
    }
    node.delete_array(name);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StorageWriteSealRead)->Arg(4096)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const bool clmul = state.range(1) != 0;
  if (clmul && !common::detail::crc32_clmul_supported()) {
    state.SkipWithError("this CPU lacks PCLMULQDQ/SSE4.1");
    return;
  }
  std::vector<std::byte> buf(bytes);
  SplitMix64 rng(7);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next());
  for (auto _ : state) {
    const std::uint32_t crc =
        clmul ? common::detail::crc32_clmul(buf) : common::detail::crc32_table(buf);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32)
    ->ArgsProduct({{64, 4096, 1 << 20}, {0, 1}})
    ->ArgNames({"bytes", "clmul"})
    ->UseRealTime();

/// One encoded power-law block per value encoding the codec picks: CSR,
/// the shape stored on the storage fetch path (index streams as varints,
/// values raw), and SELL, whose zero padding makes the byte-shuffle + RLE
/// value pass pay.
struct CodecFrame {
  std::vector<std::byte> bytes;
  std::uint64_t raw_bytes = 0;
};

const CodecFrame& codec_frame(bool shuffled_values) {
  static const auto frames = [] {
    std::array<CodecFrame, 2> out;
    std::vector<std::byte> csr;
    spmv::serialize_csr(spmv::generate_power_law(1 << 16, 1 << 16, 7.0, 1.5, 0xc0de), csr);
    std::vector<std::byte> sell;
    spmv::serialize_sell(spmv::build_sell(spmv::CsrView::from_bytes(csr), 8, 64), sell);
    for (const bool shuffle : {false, true}) {
      const std::vector<std::byte>& raw = shuffle ? sell : csr;
      const auto f = spmv::codec::encode_block(raw, spmv::codec::CodecConfig{spmv::codec::Mode::On});
      out[shuffle ? 1 : 0] = CodecFrame{{f->data(), f->data() + f->size()}, raw.size()};
    }
    return out;
  }();
  return frames[shuffled_values ? 1 : 0];
}

/// Decode one frame, on the calling thread alone (pooled = 0) or with
/// hardware_concurrency() - 1 helpers, as a StorageNode with the codec on
/// decodes on its fetcher thread.
void BM_CodecDecode(benchmark::State& state) {
  const CodecFrame& frame = codec_frame(state.range(0) != 0);
  static ThreadPool helpers(std::max(std::thread::hardware_concurrency(), 2u) - 1);
  ThreadPool* pool = state.range(1) != 0 ? &helpers : nullptr;
  for (auto _ : state) {
    DataBuffer out = spmv::codec::decode_block(frame.bytes, frame.raw_bytes, pool);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  // Raw bytes out, as perfbench's codec.decode_gbps counts them.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.raw_bytes));
}
BENCHMARK(BM_CodecDecode)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"shuffled", "pooled"})
    ->UseRealTime();

void BM_FlowNetworkRecompute(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  sim::FlowNetwork net;
  const auto agg = net.add_resource("agg", 1e9);
  std::vector<sim::ResourceId> links;
  for (int i = 0; i < 36; ++i) links.push_back(net.add_resource("l" + std::to_string(i), 1e8));
  SplitMix64 rng(3);
  for (int i = 0; i < flows; ++i) {
    net.start_flow(1ull << 40, {links[rng.next_below(36)], agg}, 9e7);
  }
  for (auto _ : state) {
    net.recompute_rates();
    benchmark::DoNotOptimize(net.active_flows());
  }
}
BENCHMARK(BM_FlowNetworkRecompute)->Arg(8)->Arg(72);

}  // namespace

int main(int argc, char** argv) {
  const int sweep_status = run_kernel_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return sweep_status;
}
