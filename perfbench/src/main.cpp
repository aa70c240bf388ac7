// DOoC real-engine benchmark.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--workdir=.perfbench] [--refdir=perfbench]
//
// One single-threaded process runs one workload on the real engine (never
// the DES): it sets the workload up, computes the in-memory reference, runs
// one untimed warm-up solve, then fixed-work solves until --seconds of solve
// time have passed, checking every solve. Further setup repetitions are
// spread over those seconds; setup_s is the median of all of them.
// --trace=0 prints the end-to-end metrics; --trace=1 alternates library
// tracing on and off across the solves and runs the per-layer probes, with
// benchmark-side spans written to <workdir>/spans-<workload>-<seed>.json.
// The last stdout line is the JSON result.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/options.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// setup_s is the median of about kSetupSeconds of setup repetitions, at
/// least kMinSetupReps and at most kMaxSetupReps of them.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 30;
constexpr double kSetupSeconds = 3.0;
constexpr double kMiB = 1024.0 * 1024.0;

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void account(const Solve& s) {
    correct = correct && s.correct;
    attempted += s.attempted;
    failed += s.failed;
  }
};

/// Ritz values of the Lanczos anchor solve, from perfbench/lanczos_ritz.txt:
/// '#' comments, then "n steps seed", then one value per line.
Reference load_anchor(const std::string& path, const Spec& spec) {
  std::ifstream in(path);
  std::string line;
  std::vector<double> values;
  bool header = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    if (!header) {
      std::uint64_t n = 0;
      int steps = 0;
      std::uint64_t seed = 0;
      fields >> n >> steps >> seed;
      // A reference taken for another problem checks nothing: leave it empty
      // so the anchor solve fails loudly.
      if (n != spec.n || steps != spec.iterations || seed != kAnchorSeed) return {};
      header = true;
      continue;
    }
    double v = 0.0;
    if (fields >> v) values.push_back(v);
  }
  return {values};
}

/// `get` of every correct solve: a solve that failed or mismatched its
/// reference has no timings.
std::vector<double> field(const std::vector<Solve>& solves, double (*get)(const Solve&)) {
  std::vector<double> out;
  for (const Solve& s : solves) {
    if (s.correct) out.push_back(get(s));
  }
  return out;
}

/// Lower quartile of a run's per-solve timings; NaN for an empty sample.
/// The shared host's busy phases only ever slow a solve down, and a run
/// catches a varying share of them; the lower quartile follows the
/// program's own speed with less of that drift than the median.
double lower_quartile(const std::vector<double>& v) {
  return v.empty() ? NAN : percentile(v, 25.0);
}

std::string fmt(const char* f, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// syncfs(2) of the filesystem holding `dir`, outside every timed region.
void sync_filesystem(const std::string& dir, SpanLog& spans) {
  auto span = spans.span("syncfs");
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

int run(const Spec& spec, std::uint64_t seed, double seconds, bool trace,
        const std::string& workdir, const std::string& run_dir, const std::string& refdir) {
  std::filesystem::create_directories(run_dir);
  SpanLog spans(trace);
  Ledger ledger;
  RunResult result;

  // Set up several times; setup_s is the median. The first deployment runs
  // the solves, and in a traced run the second stays untouched for the
  // cold-load probe. The other repetitions are spread over the solve window,
  // so that setup_s samples the same stretch of the host's time as iter_s,
  // not one burst of it. Each starts after a syncfs, so the kernel's
  // writeback of earlier files does not run beside a timed setup, and its
  // deployment is removed at once.
  std::vector<double> setup_times;
  const auto timed_setup = [&]() {
    sync_filesystem(run_dir, spans);
    auto span = spans.span("setup");
    auto d = deploy(spec, seed, run_dir + "/setup" + std::to_string(setup_times.size()), spans);
    setup_times.push_back(span.stop());
    return d;
  };
  std::unique_ptr<Deployment> main = timed_setup();
  std::unique_ptr<Deployment> fresh = trace ? timed_setup() : nullptr;
  const auto setup_reps = static_cast<std::size_t>(
      std::clamp(static_cast<int>(kSetupSeconds / setup_times.front()), kMinSetupReps,
                 kMaxSetupReps));
  // Write the deployed files back now, so that the kernel's writeback does
  // not run beside the timed solves.
  sync_filesystem(run_dir, spans);
  const double matrix_gb = static_cast<double>(main->matrix.total_bytes()) * 1e-9;
  std::printf("workload %s seed %llu: n=%llu K=%d nodes=%d slots=%d split=%d, matrix %.1f MiB raw "
              "(%.1f MiB stored), budgets %.1f MiB total, %d iterations per solve\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(spec.n), spec.k, spec.nodes, spec.slots, spec.split,
              static_cast<double>(main->matrix.total_bytes()) / kMiB,
              static_cast<double>(main->matrix.total_stored_bytes()) / kMiB,
              static_cast<double>(main->budget_total()) / kMiB, spec.iterations);

  Reference ref;
  {
    auto span = spans.span("reference");
    ref = compute_reference(spec, *main, seed);
  }
  auto engine = std::make_unique<dooc::sched::Engine>(*main->cluster, engine_config(spec));

  // Warm-up solve (untimed, checked). For Lanczos it is the anchor solve,
  // whose start-vector seed is fixed and whose Ritz values are checked in.
  {
    auto span = spans.span("warmup");
    const Reference anchor =
        spec.lanczos ? load_anchor(refdir + "/lanczos_ritz.txt", spec) : Reference{};
    const Solve warm = run_solve(spec, *main, *engine, spec.lanczos ? anchor : ref,
                                 spec.lanczos ? kAnchorSeed : seed, 0, false);
    result.account(warm);
    if (spec.lanczos) {
      std::printf("anchor solve (seed %llu) Ritz values, %s the checked-in reference:\n",
                  static_cast<unsigned long long>(kAnchorSeed),
                  warm.correct ? "matching" : "NOT matching");
      for (double v : warm.ritz) std::printf("  %.17g\n", v);
    }
  }

  // Timed solves. A traced run alternates library tracing (obs) per solve so
  // the tracing overhead is measured on the same run.
  std::vector<Solve> plain;
  std::vector<Solve> traced;
  const double window_start = now_s();
  double paused = 0.0;  // setup repetitions inside the window do not count
  const auto solved_s = [&] { return now_s() - window_start - paused; };
  for (int id = 1; solved_s() < seconds || plain.empty() || (trace && traced.empty()); ++id) {
    // The next setup repetition is due once its share of the window has passed.
    while (setup_times.size() < setup_reps &&
           solved_s() * static_cast<double>(setup_reps) >=
               seconds * static_cast<double>(setup_times.size())) {
      const double t0 = now_s();
      timed_setup().reset();
      sync_filesystem(run_dir, spans);
      paused += now_s() - t0;
    }
    const bool obs_on = trace && id % 2 == 0;
    auto span = spans.span(obs_on ? "solve.obs_traced" : "solve");
    if (obs_on) dooc::obs::TraceSession::instance().start();
    Solve s = run_solve(spec, *main, *engine, ref, seed, id, trace);
    if (obs_on) dooc::obs::TraceSession::instance().stop();
    result.account(s);
    if (!s.correct) {
      std::printf("solve %d FAILED: max relative error %.3g, %llu failed of %llu\n", id, s.error,
                  static_cast<unsigned long long>(s.failed),
                  static_cast<unsigned long long>(s.attempted));
    }
    (obs_on ? traced : plain).push_back(std::move(s));
  }
  while (setup_times.size() < setup_reps) timed_setup().reset();
  const auto iter_s = [](const Solve& s) { return s.wall_s / s.iterations; };
  const double plain_iter_s = lower_quartile(field(plain, iter_s));
  std::printf("setup_s per repetition:");
  for (double t : setup_times) std::printf(" %.4g", t);
  std::printf("\niter_s per untraced correct solve:");
  for (const double t : field(plain, iter_s)) std::printf(" %.4g", t);
  std::printf("\n");
  const std::string solves_note = std::to_string(field(plain, iter_s).size()) + " solves of " +
                                  std::to_string(spec.iterations) + " iterations";

  if (!trace) {
    ledger.add("iter_s", "s", plain_iter_s, {}, "lower quartile of " + solves_note);
    const double cpu_s_per_iter =
        lower_quartile(field(plain, [](const Solve& s) { return s.cpu_s / s.iterations; }));
    ledger.add("cpu_s_per_iter_gb", "CPU-s/iter/GB", cpu_s_per_iter / matrix_gb, {},
               fmt("lower quartile of user+sys over the solve, %.3f GB raw matrix", matrix_gb));
    ledger.add("rss_peak_mb", "MiB", median(field(plain, [](const Solve& s) {
                 return s.rss_peak_mib;
               })),
               {}, "VmHWM reset before each solve");
    ledger.add("setup_s", "s", median(setup_times), {},
               "median of " + std::to_string(setup_times.size()) + " x (generate + deploy + x0)");
  } else {
    engine.reset();
    // Counters of the untraced solves (per solve).
    const auto med = [&](double (*get)(const Solve&)) { return median(field(plain, get)); };
    double resident_peak = NAN;
    for (const double r : field(plain, [](const Solve& s) { return s.resident_peak_mib; })) {
      resident_peak = std::isnan(resident_peak) ? r : std::max(resident_peak, r);
    }

    KernelRates kernel;
    double decode_gbps = 0.0;
    double vecop_ms = 0.0;
    {
      auto span = spans.span("probe.kernel");
      kernel = probe_kernel(*main, spec.split);
    }
    {
      auto span = spans.span("probe.codec_decode");
      decode_gbps = probe_decode_gbps(*main);
    }
    {
      auto span = spans.span("probe.vecop");
      vecop_ms = probe_vecop_ms(*main);
    }
    const double budget_mb = static_cast<double>(main->budget_total()) / kMiB;
    const double ratio = main->matrix.compression_ratio();
    main.reset();

    std::uint64_t pread_bytes = 0;
    double pread_gbps = 0.0;
    double load_gbps = 0.0;
    {
      auto span = spans.span("probe.pread");
      pread_gbps = probe_pread_gbps(fresh->block_paths(), &pread_bytes);
    }
    {
      auto span = spans.span("probe.load");
      load_gbps = probe_load_gbps(*fresh);
    }
    fresh.reset();

    StorageLatency lat;
    SchedCosts sched;
    {
      auto cluster = probe_cluster(run_dir + "/probe");
      {
        auto span = spans.span("probe.storage_latency");
        lat = probe_storage_latency(*cluster);
      }
      sched = probe_sched(*cluster, spans);
    }

    const std::uint64_t llc = llc_bytes();
    const std::uint64_t array_bytes = std::max<std::uint64_t>(4 * llc, 256ull << 20);
    MemoryCeilings mem;
    {
      auto span = spans.span("probe.host_memory");
      mem = probe_memory(array_bytes, spec.split);
    }

    ledger.add("host.pread_gbps", "GB/s", pread_gbps, {},
               fmt("page-cache pread of the deployed files (%.1f MiB), not an SSD",
                   static_cast<double>(pread_bytes) / kMiB));
    ledger.add("host.memcpy_gbps", "GB/s", mem.memcpy_gbps, {},
               fmt("1 thread, arrays %.0f MiB each, LLC %.0f MiB",
                   static_cast<double>(mem.array_bytes) / kMiB, static_cast<double>(llc) / kMiB));
    ledger.add("host.triad_gbps", "GB/s", mem.triad_gbps, {},
               fmt("%.0f threads, 3 arrays of %.0f MiB", mem.triad_threads,
                   static_cast<double>(mem.array_bytes) / kMiB));
    ledger.add("storage.disk_read_gb", "GB", med([](const Solve& s) {
                 return static_cast<double>(s.storage.disk_read_bytes) * 1e-9;
               }),
               {}, "per solve");
    ledger.add("storage.disk_write_gb", "GB", med([](const Solve& s) {
                 return static_cast<double>(s.storage.disk_write_bytes) * 1e-9;
               }),
               {}, "per solve");
    ledger.add("storage.evictions", "count", med([](const Solve& s) {
                 return static_cast<double>(s.storage.evictions);
               }),
               {}, "per solve");
    ledger.add("storage.remote_fetch_gb", "GB", med([](const Solve& s) {
                 return static_cast<double>(s.storage.remote_fetch_bytes) * 1e-9;
               }),
               {}, "per solve");
    ledger.add("storage.resident_peak_mb", "MiB", resident_peak, "storage.budget_mb",
               "open defect: write-once intermediates are never reclaimed");
    ledger.add("storage.budget_mb", "MiB", budget_mb, {}, "summed node budgets");
    ledger.add("storage.load_gbps", "GB/s", load_gbps, "host.pread_gbps",
               "cold request_read of every block, raw bytes");
    ledger.add("storage.load_eff", "ratio", load_gbps / pread_gbps);
    ledger.add("storage.hit_us", "us", lat.hit_us, {}, "p50 resident 4 KiB read, probe cluster");
    ledger.add("storage.peer_fetch_us", "us", lat.peer_fetch_us, {},
               "p50 4 KiB peer-memory read, probe cluster");
    ledger.add("storage.peer_fetch_gbps", "GB/s", lat.peer_fetch_gbps, "host.memcpy_gbps",
               "8 MiB peer-memory reads, probe cluster");
    ledger.add("codec.ratio", "ratio", ratio, {}, "raw / stored bytes");
    ledger.add("codec.decode_gbps", "GB/s", decode_gbps, "host.memcpy_gbps",
               decode_gbps > 0 ? "raw bytes out, 1 thread" : "absent: no block is stored encoded");
    ledger.add("codec.decode_eff", "ratio", decode_gbps / mem.memcpy_gbps);
    ledger.add("kernel.spmv_gbps", "GB/s", kernel.gbps, "host.triad_gbps",
               "computed bytes (CSR arrays + x + y)");
    ledger.add("kernel.spmv_eff", "ratio", kernel.gbps / mem.triad_gbps);
    ledger.add("kernel.spmv_speedup", "ratio", kernel.speedup, {},
               fmt("%.0f split threads vs serial", spec.split));
    ledger.add("sched.tasks", "count", med([](const Solve& s) {
                 return static_cast<double>(s.tasks);
               }),
               {}, "per solve");
    ledger.add("sched.task_us_1k", "us", sched.task_us_1k, {}, "1k independent no-op tasks");
    ledger.add("sched.task_us_16k", "us", sched.task_us_16k, {}, "16k independent no-op tasks");
    ledger.add("sched.chain_us", "us", sched.chain_us, {}, "1k-task chain on one node");
    ledger.add("sched.hop_us", "us", sched.hop_us, {}, "1k-task chain alternating nodes");
    ledger.add("sched.run_us", "us", sched.run_us, {}, "p50 one-task submit + await");
    ledger.add("solver.vecop_ms", "ms", vecop_ms, {}, "dot_dense + axpy_into, one stored vector");
    ledger.add("solver.iterations", "count", med([](const Solve& s) {
                 return static_cast<double>(s.iterations);
               }));
    ledger.add("obs.trace_overhead_pct", "%",
               (lower_quartile(field(traced, iter_s)) / plain_iter_s - 1.0) * 100.0, {},
               std::to_string(field(traced, iter_s).size()) + " traced vs " +
                   std::to_string(field(plain, iter_s).size()) + " untraced solves");
  }

  engine.reset();
  main.reset();
  fresh.reset();
  const std::string span_path =
      workdir + "/spans-" + spec.name + "-" + std::to_string(seed) + ".json";
  spans.write(span_path);
  std::filesystem::remove_all(run_dir);

  ledger.print_table(spec.name + (trace ? " per-layer (traced run)" : " end-to-end"));
  std::printf("correctness: %s, %llu attempted, %llu failed%s\n",
              result.correct ? "all solves match their reference" : "MISMATCH",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              trace ? (", spans in " + span_path).c_str() : "");
  ledger.print_json(result.correct, result.attempted, result.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const dooc::Options opts = dooc::Options::from_args(argc, argv);
  const std::string workload = opts.get("workload");
  const Spec* spec = find_spec(workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:", workload.c_str());
    for (const auto& n : spec_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const double seconds = opts.get_double("seconds", 10.0);
  const bool trace = opts.get_int("trace", 0) != 0;
  const std::string workdir = opts.get("workdir", ".perfbench");
  const std::string run_dir = workdir + "/run-" + std::to_string(::getpid());
  try {
    return run(*spec, seed, seconds, trace, workdir, run_dir, opts.get("refdir", "perfbench"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::error_code ec;
    std::filesystem::remove_all(run_dir, ec);
    return 1;
  }
}
