// dooc::obs::causal — causality analysis over the trace stream.
//
// The trace layer's flow events ('s'/'t'/'f', correlated by a 64-bit id)
// link producer-task-end → block → consumer-task-start and
// read_async-issue → completion-delivery → wait-end. This module rebuilds
// that DAG from a parsed trace (engine or DES — same schema, real or
// virtual time), extracts the longest weighted path bounding the makespan,
// attributes each path segment to a blame category (compute, demand I/O,
// prefetch-shadowed I/O, scheduler wait, fault, decode), and
// re-times the DAG under counterfactuals ("what if storage were free?").
//
// Correlation-id rules (shared by sched::Engine and simcluster::SimEngine):
//   dep flows:  id = kFlowDep  | fnv1a(array name)        — one per array,
//               valid because storage arrays are write-once (immutability
//               contract): the array name uniquely names its producer.
//   load flows: id = kFlowLoad | fnv1a(array name, offset) — one per block
//               read; re-reads after eviction reuse the id, so the graph
//               splits instances at each 's' point.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_reader.hpp"

namespace dooc::obs::causal {

// ---- correlation ids --------------------------------------------------------

/// Namespace bits (top two of the id) keep the flow families disjoint.
inline constexpr std::uint64_t kFlowNamespaceMask = 0x3ull << 62;
inline constexpr std::uint64_t kFlowDep = 0x1ull << 62;
inline constexpr std::uint64_t kFlowLoad = 0x2ull << 62;

/// FNV-1a based ids — pure functions of the array name (and offset), so the
/// real engine and the DES assign the *same* id to the same logical
/// dependency, which is what makes traces comparable across the two.
std::uint64_t flow_id_dep(std::string_view array);
std::uint64_t flow_id_load(std::string_view array, std::uint64_t offset);

// ---- graph ------------------------------------------------------------------

/// Blame categories, as they appear in Blame::by_category_us and
/// PathSegment::category.
inline constexpr const char* kBlameCompute = "compute";
inline constexpr const char* kBlameDemandIo = "demand-io";
inline constexpr const char* kBlamePrefetchIo = "prefetch-io";
inline constexpr const char* kBlameSchedWait = "sched-wait";
/// Load time spent inside fault-injection machinery (retry backoff sleeps,
/// injected latency spikes — the cat "fault" spans): I/O that only exists
/// because something misbehaved, split out so a faulty run's blame shows
/// *why* its demand-io grew.
inline constexpr const char* kBlameFault = "fault";
/// Load time spent decompressing codec frames on the fetcher/io threads
/// (the cat "storage" name "decode" spans). This is the CPU half of the
/// compression trade: with the codec on, demand-io blame should shrink and
/// this category appear in its place — the causal evidence that bandwidth
/// was bought with decode cycles.
inline constexpr const char* kBlameDecode = "decode";

enum class NodeKind : std::uint8_t {
  Compute,  ///< 'X' cat "task"
  Load,     ///< synthesized from one load-flow instance (issue → last point)
  Wait,     ///< 'X' cat "sched" name "wait-inputs" (blocking-I/O ablation)
};

struct CausalNode {
  NodeKind kind = NodeKind::Compute;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int pid = -1;  ///< virtual node
  int tid = 0;
  std::int64_t task = -1;          ///< Compute: task id (span arg "task")
  std::vector<std::size_t> preds;  ///< indices into CausalGraph::nodes()

  [[nodiscard]] double dur_us() const { return end_us - start_us; }
};

/// One hop of the critical path, in source→sink order. A Load node may
/// contribute two segments (its demand and prefetch-shadowed portions); a
/// gap between a node and its critical predecessor contributes a
/// "sched-wait" segment attached to the downstream node.
struct PathSegment {
  std::size_t node = 0;  ///< index into nodes()
  std::string category;
  double us = 0.0;
};

struct Blame {
  std::map<std::string, double> by_category_us;

  [[nodiscard]] double total_us() const {
    double t = 0.0;
    for (const auto& [cat, us] : by_category_us) t += us;
    return t;
  }
  [[nodiscard]] double get(const std::string& category) const {
    const auto it = by_category_us.find(category);
    return it != by_category_us.end() ? it->second : 0.0;
  }
};

/// The reconstructed producer→consumer DAG. Edges come from three sources:
/// dep flows (producer task → consumer task), load flows (block load →
/// consumer task) and per-(pid,tid) program order between non-Load spans
/// (a worker lane runs one span at a time). Load nodes take no program
/// order: they are concurrent by design and are ordered by flows alone.
class CausalGraph {
 public:
  static CausalGraph build(const std::vector<ParsedEvent>& events);

  [[nodiscard]] const std::vector<CausalNode>& nodes() const { return nodes_; }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  /// max end − min start over all nodes (µs).
  [[nodiscard]] double makespan_us() const { return max_end_us_ - min_start_us_; }

  /// Longest-weighted path: walk back from the latest-ending node, at each
  /// step following the predecessor with the latest end. Returned in
  /// source→sink order.
  [[nodiscard]] std::vector<PathSegment> critical_path() const;

  /// Per-category time summed along critical_path().
  [[nodiscard]] Blame blame() const;

  /// Re-time the DAG with the duration of every node matching `category`
  /// scaled by `factor`; returns the predicted makespan (µs). Categories:
  /// "io" (Load + Wait), "compute". Roots re-time
  /// to 0, so with factor ≤ 1 the prediction never exceeds makespan_us().
  [[nodiscard]] double what_if(std::string_view category, double factor) const;

  /// makespan_us() / what_if(category, factor) — the paper-style headline
  /// ("how much faster if storage were free?").
  [[nodiscard]] double speedup_if(std::string_view category, double factor) const {
    const double w = what_if(category, factor);
    return w > 0.0 ? makespan_us() / w : 0.0;
  }

 private:
  /// Demand/shadowed split of a Load node on the path: the part of its
  /// interval overlapped by compute on the same pid was hidden (prefetch-
  /// shadowed); the rest stalled the node (demand).
  [[nodiscard]] double shadowed_us(const CausalNode& n) const;
  /// Part of a Load node's interval overlapped by fault machinery (cat
  /// "fault" spans: retry backoff, injected latency) on the same pid.
  [[nodiscard]] double fault_us(const CausalNode& n) const;
  /// Part of a Load node's interval overlapped by codec decompression (cat
  /// "storage" name "decode" spans) on the same pid.
  [[nodiscard]] double decode_us(const CausalNode& n) const;

  std::vector<CausalNode> nodes_;
  /// Per-pid union of Compute intervals, merged and sorted (for the
  /// demand/shadowed split).
  std::map<int, std::vector<std::pair<double, double>>> compute_busy_;
  /// Per-pid union of cat "fault" span intervals (for the fault split).
  std::map<int, std::vector<std::pair<double, double>>> fault_busy_;
  /// Per-pid union of decode span intervals (for the decode split).
  std::map<int, std::vector<std::pair<double, double>>> decode_busy_;
  double min_start_us_ = 0.0;
  double max_end_us_ = 0.0;
};

/// Human-readable report (the dooc_tracecat --critical-path/--blame/
/// --what-if sections). `what_ifs` holds (category, factor) pairs.
std::string causal_report(const CausalGraph& graph, bool critical_path, bool blame,
                          const std::vector<std::pair<std::string, double>>& what_ifs);

}  // namespace dooc::obs::causal
