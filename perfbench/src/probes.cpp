#include "probes.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"
#include "solver/dist_vector.hpp"
#include "spmv/codec.hpp"
#include "spmv/kernels.hpp"

namespace perfbench {

namespace st = dooc::storage;
namespace sp = dooc::spmv;
namespace sc = dooc::sched;

namespace {

constexpr int kReps = 3;

}  // namespace

double probe_pread_gbps(const std::vector<std::string>& files, std::uint64_t* bytes) {
  constexpr std::size_t kChunk = 8u << 20;
  std::unique_ptr<std::byte[]> buf(new std::byte[kChunk]);
  std::vector<double> times;
  std::uint64_t total = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    total = 0;
    const double t0 = now_s();
    for (const std::string& f : files) {
      const int fd = ::open(f.c_str(), O_RDONLY);
      if (fd < 0) throw std::runtime_error("cannot open " + f);
      off_t off = 0;
      for (;;) {
        const ssize_t got = ::pread(fd, buf.get(), kChunk, off);
        if (got < 0) {
          ::close(fd);
          throw std::runtime_error("pread failed on " + f);
        }
        if (got == 0) break;
        off += got;
      }
      ::close(fd);
      total += static_cast<std::uint64_t>(off);
    }
    times.push_back(now_s() - t0);
  }
  *bytes = total;
  return static_cast<double>(total) / median(times) * 1e-9;
}

MemoryCeilings probe_memory(std::uint64_t array_bytes, int triad_threads) {
  const std::size_t n = array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto in_parallel = [&](const auto& body) {
    std::vector<std::thread> threads;
    for (int t = 0; t < triad_threads; ++t) {
      const std::size_t lo = n * static_cast<std::size_t>(t) / triad_threads;
      const std::size_t hi = n * static_cast<std::size_t>(t + 1) / triad_threads;
      threads.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (auto& th : threads) th.join();
  };
  // First touch from the threads that run the triad.
  in_parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + static_cast<double>(i & 7);
      c[i] = 2.0;
    }
  });

  MemoryCeilings out;
  out.array_bytes = n * sizeof(double);
  out.triad_threads = triad_threads;
  std::vector<double> copy_times;
  std::vector<double> triad_times;
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = now_s();
    std::memcpy(a.get(), b.get(), n * sizeof(double));
    copy_times.push_back(now_s() - t0);
    const double s = 0.5 + rep;
    t0 = now_s();
    in_parallel([&](std::size_t lo, std::size_t hi) {
      double* __restrict ap = a.get();
      const double* __restrict bp = b.get();
      const double* __restrict cp = c.get();
      for (std::size_t i = lo; i < hi; ++i) ap[i] = bp[i] + s * cp[i];
    });
    triad_times.push_back(now_s() - t0);
  }
  // Keep the stores observable.
  if (a[n / 2] < 0.0) std::fprintf(stderr, "perfbench: impossible triad result\n");
  out.memcpy_gbps = static_cast<double>(out.array_bytes) / median(copy_times) * 1e-9;
  out.triad_gbps = 3.0 * static_cast<double>(out.array_bytes) / median(triad_times) * 1e-9;
  return out;
}

double probe_load_gbps(Deployment& fresh) {
  const sp::DeployedMatrix& m = fresh.matrix;
  double seconds = 0.0;
  std::uint64_t bytes = 0;
  for (int u = 0; u < m.grid.k(); ++u) {
    for (int v = 0; v < m.grid.k(); ++v) {
      st::StorageNode& node = fresh.cluster->node(m.owner_of(u, v));
      const double t0 = now_s();
      st::ReadHandle h = node.request_read({m.name_of(u, v), 0, m.bytes_of(u, v)}).get();
      seconds += now_s() - t0;
      bytes += h.bytes().size();
      h.release();
    }
  }
  return static_cast<double>(bytes) / seconds * 1e-9;
}

StorageLatency probe_storage_latency(st::StorageCluster& cluster) {
  StorageLatency out;
  st::StorageNode& home = cluster.node(0);
  const auto write_blocks = [&home](const std::string& name, std::uint64_t blocks,
                                    std::uint64_t block_bytes) {
    home.create_array(name, blocks * block_bytes, block_bytes);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      st::WriteHandle w = home.request_write({name, b * block_bytes, block_bytes}).get();
      std::memset(w.bytes().data(), static_cast<int>(b & 0xff), block_bytes);
      w.release();
    }
  };

  {
    constexpr std::uint64_t kBytes = 4096;
    write_blocks("probe_hit", 1, kBytes);
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) {
      const double t0 = now_s();
      st::ReadHandle h = home.request_read({"probe_hit", 0, kBytes}).get();
      us.push_back((now_s() - t0) * 1e6);
      h.release();
    }
    out.hit_us = percentile(us, 50);
    home.delete_array("probe_hit");
  }
  st::StorageNode& peer = cluster.node(1);
  {
    constexpr std::uint64_t kBlocks = 256;
    constexpr std::uint64_t kBytes = 4096;
    write_blocks("probe_peer", kBlocks, kBytes);
    std::vector<double> us;
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      const double t0 = now_s();
      st::ReadHandle h = peer.request_read({"probe_peer", b * kBytes, kBytes}).get();
      us.push_back((now_s() - t0) * 1e6);
      h.release();
    }
    out.peer_fetch_us = percentile(us, 50);
    home.delete_array("probe_peer");
  }
  {
    constexpr std::uint64_t kBlocks = 4;
    constexpr std::uint64_t kBytes = 8ull << 20;
    write_blocks("probe_peer_big", kBlocks, kBytes);
    double seconds = 0.0;
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      const double t0 = now_s();
      st::ReadHandle h = peer.request_read({"probe_peer_big", b * kBytes, kBytes}).get();
      seconds += now_s() - t0;
      h.release();
    }
    out.peer_fetch_gbps = static_cast<double>(kBlocks * kBytes) / seconds * 1e-9;
    home.delete_array("probe_peer_big");
  }
  return out;
}

KernelRates probe_kernel(Deployment& d, int split_threads) {
  const sp::DeployedMatrix& m = d.matrix;
  dooc::ThreadPool pool(static_cast<std::size_t>(split_threads));
  const sp::KernelConfig kernels;
  double serial_s = 0.0;
  double split_s = 0.0;
  double bytes = 0.0;
  for (int u = 0; u < m.grid.k(); ++u) {
    for (int v = 0; v < m.grid.k(); ++v) {
      st::StorageNode& node = d.cluster->node(m.owner_of(u, v));
      st::ReadHandle h = node.request_read({m.name_of(u, v), 0, m.bytes_of(u, v)}).get();
      const sp::CsrView a = sp::CsrView::from_bytes(h.bytes());
      std::vector<double> x(a.cols(), 1.0);
      std::vector<double> y(a.rows());
      std::vector<double> serial;
      std::vector<double> split;
      for (int rep = 0; rep < kReps; ++rep) {
        double t0 = now_s();
        a.multiply(x, y);
        serial.push_back(now_s() - t0);
        t0 = now_s();
        sp::multiply_parallel(a, x, y, pool, kernels);
        split.push_back(now_s() - t0);
      }
      serial_s += median(serial);
      split_s += median(split);
      bytes += 8.0 * static_cast<double>(a.rows() + 1) + 12.0 * static_cast<double>(a.nnz()) +
               8.0 * static_cast<double>(a.rows() + a.cols());
      h.release();
    }
  }
  return {bytes / split_s * 1e-9, serial_s / split_s};
}

double probe_decode_gbps(Deployment& d) {
  const sp::DeployedMatrix& m = d.matrix;
  double seconds = 0.0;
  std::uint64_t raw = 0;
  for (int u = 0; u < m.grid.k(); ++u) {
    for (int v = 0; v < m.grid.k(); ++v) {
      const std::vector<std::byte> frame = read_file(d.block_path(u, v));
      if (!sp::codec::is_encoded(frame)) continue;
      std::vector<double> times;
      for (int rep = 0; rep < kReps; ++rep) {
        const double t0 = now_s();
        const dooc::DataBuffer out = sp::codec::decode_block(frame, m.bytes_of(u, v));
        times.push_back(now_s() - t0);
        if (rep == 0) raw += out.size();
      }
      seconds += median(times);
    }
  }
  return raw > 0 ? static_cast<double>(raw) / seconds * 1e-9 : 0.0;
}

double probe_vecop_ms(Deployment& d) {
  const sp::DeployedMatrix& m = d.matrix;
  dooc::solver::DistVectorOps vecs(*d.cluster, m.grid,
                                   [&m](int u, int v) { return m.owner_of(u, v); });
  vecs.create("probe_vec", 0, [](std::uint64_t i) { return 1.0 / (1.0 + static_cast<double>(i)); });
  vecs.flush("probe_vec", 0);
  std::vector<double> y(m.grid.n(), 1.0);
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    const double c = vecs.dot_dense(y, "probe_vec", 0);
    vecs.axpy_into(y, 1e-9 / (1.0 + std::abs(c)), "probe_vec", 0);
    ms.push_back((now_s() - t0) * 1e3);
  }
  vecs.remove("probe_vec", 0);
  return median(ms);
}

namespace {

/// `n` independent no-op tasks pinned to node 0.
sc::TaskGraph noop_graph(int n) {
  sc::TaskGraph g;
  for (int i = 0; i < n; ++i) {
    sc::Task t;
    t.name = "noop";
    t.kind = "noop";
    t.preferred_node = 0;
    g.add(std::move(t));
  }
  g.build();
  return g;
}

/// A dependency chain of `n` no-op tasks: task i writes its own 64-byte
/// array and reads task i-1's. `nodes` = 1 keeps it on node 0; 2 alternates
/// nodes so every edge is a cross-node hop.
sc::TaskGraph chain_graph(st::StorageCluster& cluster, const std::string& prefix, int n,
                          int nodes) {
  constexpr std::uint64_t kBytes = 64;
  sc::TaskGraph g;
  for (int i = 0; i < n; ++i) {
    const int node = i % nodes;
    const std::string name = prefix + std::to_string(i);
    cluster.node(node).create_array(name, kBytes, kBytes);
    sc::Task t;
    t.name = name;
    t.kind = "chain";
    t.preferred_node = node;
    t.outputs.push_back({name, 0, kBytes});
    if (i > 0) t.inputs.push_back({prefix + std::to_string(i - 1), 0, kBytes});
    g.add(std::move(t));
  }
  g.build();
  return g;
}

}  // namespace

std::unique_ptr<st::StorageCluster> probe_cluster(const std::string& scratch) {
  st::StorageConfig cfg;
  cfg.scratch_root = scratch;
  cfg.codec = sp::codec::CodecConfig{};
  cfg.replication = st::ReplicationConfig{};
  return std::make_unique<st::StorageCluster>(2, cfg);
}

SchedCosts probe_sched(st::StorageCluster& cluster, SpanLog& spans) {
  sc::Engine engine(cluster, sc::EngineConfig{});
  SchedCosts out;

  const auto per_task_us = [&](sc::TaskGraph& g, const char* name) {
    auto span = spans.span(name);
    engine.run(g);
    return span.stop() * 1e6 / static_cast<double>(g.size());
  };

  std::vector<double> small;
  for (int rep = 0; rep < kReps; ++rep) {
    sc::TaskGraph g = noop_graph(1000);
    small.push_back(per_task_us(g, "probe.sched.noop_1k"));
  }
  out.task_us_1k = median(small);
  {
    sc::TaskGraph g = noop_graph(16384);
    out.task_us_16k = per_task_us(g, "probe.sched.noop_16k");
  }
  {
    sc::TaskGraph g = chain_graph(cluster, "chain", 1000, 1);
    out.chain_us = per_task_us(g, "probe.sched.chain");
  }
  {
    sc::TaskGraph g = chain_graph(cluster, "hop", 1000, 2);
    out.hop_us = per_task_us(g, "probe.sched.hop");
  }
  {
    auto span = spans.span("probe.sched.run");
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      sc::TaskGraph g = noop_graph(1);
      const double t0 = now_s();
      engine.run(g);
      us.push_back((now_s() - t0) * 1e6);
    }
    out.run_us = percentile(us, 50);
  }
  return out;
}

}  // namespace perfbench
