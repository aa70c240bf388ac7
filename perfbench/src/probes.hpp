// Per-layer probes for the traced run. Each one calls only public library
// APIs (StorageNode::request_read, codec::decode_block, the CSR kernels,
// DistVectorOps, TaskGraph/Engine) and is timed from the benchmark side.
// Host ceilings (pread, memcpy, STREAM triad) are measured in the same
// process so every layer rate is printed as a share of its ceiling.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Raw pread of `files` (a page-cache rate once they are cached), GB/s;
/// median of three passes. `bytes` receives the bytes read per pass.
double probe_pread_gbps(const std::vector<std::string>& files, std::uint64_t* bytes);

struct MemoryCeilings {
  double memcpy_gbps = 0.0;  ///< bytes copied per second, one thread
  double triad_gbps = 0.0;   ///< STREAM triad bytes (3 arrays) per second
  std::uint64_t array_bytes = 0;
  int triad_threads = 0;
};
/// memcpy and STREAM triad over arrays of `array_bytes` each; median of
/// three repetitions.
MemoryCeilings probe_memory(std::uint64_t array_bytes, int triad_threads);

/// Cold request_read().get() of every sub-matrix on a deployment nothing
/// has read yet: raw bytes delivered per second, GB/s.
double probe_load_gbps(Deployment& fresh);

struct StorageLatency {
  double hit_us = 0.0;         ///< p50 read of a resident block
  double peer_fetch_us = 0.0;  ///< p50 read of a 4 KiB block resident on a peer
  double peer_fetch_gbps = 0.0;
};
/// Needs a cluster of at least two nodes; creates and deletes its own arrays.
StorageLatency probe_storage_latency(dooc::storage::StorageCluster& cluster);

struct KernelRates {
  double gbps = 0.0;     ///< computed bytes (CSR arrays + x + y) / split-pool wall
  double speedup = 0.0;  ///< serial wall / split-pool wall
};
KernelRates probe_kernel(Deployment& d, int split_threads);

/// decode_block of every stored codec frame: raw bytes produced per second
/// (GB/s); 0 when no block of the deployment is stored encoded.
double probe_decode_gbps(Deployment& d);

/// DistVectorOps::dot_dense + axpy_into against one stored vector, ms.
double probe_vecop_ms(Deployment& d);

struct SchedCosts {
  double task_us_1k = 0.0;
  double task_us_16k = 0.0;
  double chain_us = 0.0;
  double hop_us = 0.0;
  double run_us = 0.0;
};
/// Scheduler probes on an engine with 1 slot and 1 split thread per node,
/// over a cluster of at least two nodes.
SchedCosts probe_sched(dooc::storage::StorageCluster& cluster, SpanLog& spans);

/// The two-node cluster the workload-independent probes run on.
std::unique_ptr<dooc::storage::StorageCluster> probe_cluster(const std::string& scratch);

}  // namespace perfbench
