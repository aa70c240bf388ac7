// The real execution backend: global assignment + per-node local
// schedulers + compute workers, over the distributed storage layer.
//
// The engine is multi-tenant: it hosts N concurrent jobs (one built
// TaskGraph each), every job with its own ExecutorCore state machine,
// multiplexed onto one shared set of persistent compute workers. submit()
// registers a job and returns immediately; await() blocks for its Report.
// Workers iterate the live jobs in priority order (round-robin within a
// priority tier) so every job makes progress; storage admission is
// arbitrated per job by the fair-share layer (the job id travels as the
// storage tenant on every read). run() is the single-job wrapper —
// submit + await — and with one job the schedule is exactly the
// pre-multi-tenant engine's.
//
// Each virtual node runs `compute_slots_per_node` compute filters (worker
// threads) around the shared ExecutorCore state machine. Workers never
// block on storage reads: a picked task's inputs are requested with
// read_async and the task parks in InputsPending while the worker takes
// the next Runnable task; storage completion events (the node's
// CompletionQueue) transition parked tasks to Runnable. This is how "the
// local scheduler makes sure that there are a given number of ready tasks
// whose data are in memory" (paper §III-C) and how loads overlap with
// compute — the prefetch window is simply how many tasks may park with
// loads in flight.
//
// Intermediates are released as the graph goes: once the last task reading
// a transient array (TaskGraph::mark_transient) completes, its blocks are
// dropped on every node — the paper's explicit release, for data eviction
// cannot take because it was never made durable (§III-B).
//
// EngineConfig::blocking_io retains the pre-completion-driven behaviour
// (workers block on future::get(), prefetch as a bolt-on pass) as the
// --blocking-io ablation baseline.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "sched/executor_core.hpp"
#include "sched/global_scheduler.hpp"
#include "sched/policy.hpp"
#include "sched/task.hpp"
#include "storage/storage_cluster.hpp"

namespace dooc::obs::telemetry {
class LocalTelemetry;  // heavy include avoided; engine.cpp owns the definition
}

namespace dooc::sched {

/// What a task body may touch while running.
class TaskContext {
 public:
  TaskContext(const Task* task, int node, ThreadPool* pool,
              std::vector<storage::ReadHandle>* inputs,
              std::vector<storage::WriteHandle>* outputs)
      : task_(task), node_(node), pool_(pool), inputs_(inputs), outputs_(outputs) {}

  [[nodiscard]] const Task& task() const noexcept { return *task_; }
  [[nodiscard]] int node() const noexcept { return node_; }
  /// Node-local pool for splitting the task across the node's parallelism.
  [[nodiscard]] ThreadPool& pool() const noexcept { return *pool_; }

  [[nodiscard]] std::size_t num_inputs() const noexcept { return inputs_->size(); }
  [[nodiscard]] std::size_t num_outputs() const noexcept { return outputs_->size(); }
  /// Input handle i corresponds to task().inputs[i]; same for outputs.
  [[nodiscard]] const storage::ReadHandle& input(std::size_t i) const { return (*inputs_)[i]; }
  [[nodiscard]] storage::WriteHandle& output(std::size_t i) { return (*outputs_)[i]; }

 private:
  const Task* task_;
  int node_;
  ThreadPool* pool_;
  std::vector<storage::ReadHandle>* inputs_;
  std::vector<storage::WriteHandle>* outputs_;
};

struct EngineConfig {
  /// Compute filters (worker threads) per node.
  int compute_slots_per_node = 1;
  /// Threads each node's task bodies may split across (TaskContext::pool).
  int split_threads_per_node = 1;
  /// How many upcoming ready tasks to prefetch inputs for.
  int prefetch_window = 2;
  LocalPolicy local_policy = LocalPolicy::DataAware;
  GlobalPolicy global_policy = GlobalPolicy::Affinity;
  /// Ablation baseline: workers pick a task and block on future::get() for
  /// its inputs (the pre-completion-driven engine). Default is the
  /// completion-driven path where compute workers never block on I/O.
  bool blocking_io = false;
};

/// One task whose input loads failed permanently (retry budget exhausted).
struct FaultRecord {
  TaskId task = kInvalidTask;
  std::string name;
  int node = -1;
  int retries = 0;    ///< re-queues performed before giving up
  std::string error;  ///< what() of the final load failure
};

/// Structured failure report of a fault-tolerant run. With a FaultPlan
/// installed the engine does not abort on a permanent storage error: it
/// drains every still-runnable task and reports what could not be computed
/// — graceful degradation instead of a crash.
struct FaultSummary {
  std::vector<FaultRecord> failed;  ///< tasks whose retry budget ran out
  std::uint64_t poisoned = 0;       ///< successors skipped because an ancestor failed
  std::uint64_t load_faults = 0;    ///< permanent load failures reported by storage
  std::uint64_t task_retries = 0;   ///< task re-queues after a load fault
  std::uint64_t producer_reruns = 0;///< Done producers re-run to re-derive lost blocks

  /// Every task ran to completion (retries and reruns may still be > 0).
  [[nodiscard]] bool ok() const noexcept { return failed.empty() && poisoned == 0; }
  [[nodiscard]] std::string to_text() const;
};

struct Report {
  double makespan = 0.0;  ///< seconds, submit to last task settled
  std::uint64_t tasks_executed = 0;
  double total_flops = 0.0;
  std::vector<int> assignment;        ///< task -> node
  /// Cluster-wide stats delta over the job. Exact for a lone job; when
  /// jobs overlap in time the deltas overlap too (shared cluster).
  storage::StorageStats storage;
  std::uint64_t cross_node_bytes = 0; ///< bytes fetched from or stored to a peer
  FaultSummary faults;                ///< empty/ok unless a FaultPlan was active

  [[nodiscard]] double gflops() const {
    return makespan > 0 ? total_flops / makespan * 1e-9 : 0.0;
  }
};

/// Per-job scheduling knobs for Engine::submit.
struct SubmitOptions {
  /// Job id; 0 = let the engine assign one (see reserve_job_id). Ids of
  /// live jobs must be unique and non-zero.
  std::uint32_t job = 0;
  /// Fair-share weight for the storage admission budget (relative).
  double weight = 1.0;
  /// Compute priority: higher-priority jobs' tasks are staged and picked
  /// first; equal priorities round-robin.
  int priority = 0;
};

class Engine {
 public:
  Engine(storage::StorageCluster& cluster, EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a job for execution and return its id. The graph must stay
  /// alive and untouched until await() returns. Thread-safe.
  std::uint32_t submit(TaskGraph& graph, SubmitOptions options = {});
  /// Block until the job settles, reap it, and return its Report. Without
  /// a fault plan (and in blocking-io mode) the job's first task/storage
  /// error is rethrown here. Each submitted job must be awaited exactly
  /// once.
  Report await(std::uint32_t job);
  /// Non-blocking: has the job settled (await will not block)?
  [[nodiscard]] bool finished(std::uint32_t job);
  /// Pre-allocate a job id (for callers that queue jobs before submitting
  /// them, so the id — and its array-namespace prefix — exists up front).
  std::uint32_t reserve_job_id();
  /// Callback fired (outside all engine locks) when a job settles, before
  /// its await() returns. The jobs layer uses it to pump its admission
  /// queue.
  void set_on_job_done(std::function<void(std::uint32_t)> cb);

  /// Single-job convenience: submit + await. With one live job the
  /// schedule is exactly the pre-multi-tenant engine's.
  Report run(TaskGraph& graph);

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

 private:
  struct NodeState;
  class Probe;
  struct Staged;
  struct JobRun;
  using JobPtr = std::shared_ptr<JobRun>;

  /// staged-map key: one namespace of task ids per job.
  static std::uint64_t staged_key(std::uint32_t job, TaskId t) {
    return (static_cast<std::uint64_t>(job) << 32) | t;
  }

  void worker_loop(NodeState& ns);
  void worker_loop_blocking(NodeState& ns);
  /// Live (not settled/failed) jobs in scheduling order: priority
  /// descending, id ascending within a tier. `rotate` offsets the start
  /// within the top tier for per-node round-robin fairness.
  std::vector<JobPtr> job_snapshot(std::uint64_t rotate);
  /// Drain the node's storage completion queue into the owning jobs'
  /// cores. Jobs whose completion carried an error (plan-less mode) are
  /// appended to `failures`; in fault-tolerant mode errors route into
  /// handle_load_fault, nodes that gained work are appended to `wakes`,
  /// and jobs a poisoning settled to `settled`. ns.mutex held; the out
  /// lists are processed by the caller with it released.
  void drain_completions(NodeState& ns, std::vector<int>& wakes, std::vector<JobPtr>& failures,
                         std::vector<JobPtr>& settled);
  /// A staged task's input load failed permanently (the I/O filters already
  /// exhausted the retry/backoff policy). Re-derives lost blocks, then asks
  /// the core to retry or poison the task. ns.mutex held.
  void handle_load_fault(NodeState& ns, const JobPtr& jr, TaskId t,
                         const std::exception_ptr& err, std::vector<int>& wakes,
                         std::vector<JobPtr>& settled);
  /// Re-queue Done producers of `t`'s inputs whose write-once output blocks
  /// are genuinely lost (no live holder, no durable copy). ns.mutex held.
  void maybe_resurrect_producers(NodeState& ns, const JobPtr& jr, TaskId t,
                                 std::vector<int>& wakes);
  /// Re-run Done task `p`: forget its outputs, re-arm its transient inputs'
  /// reader counts and, for inputs already reclaimed, re-run their writers
  /// first (recursively). False when `p` is not Done or an output is still
  /// live. ns.mutex and jr.reclaim_mutex held.
  bool rerun_producer(NodeState& ns, JobRun& jr, TaskId p, std::vector<int>& wakes);
  [[nodiscard]] bool block_lost(const storage::Interval& in) const;
  /// Purge every output block of `p` cluster-wide so a re-run may rewrite
  /// them; false when some block is still live (pinned / awaited).
  bool forget_outputs(const JobRun& jr, TaskId p);
  /// Task `t` finished reading: count down its transient inputs and drop
  /// the blocks of every array whose last reader this was. No locks held.
  void release_transient_inputs(JobRun& jr, TaskId t);
  /// Bump + notify each listed node's wake counter, then clear the list.
  /// Must be called with no ns.mutex held.
  void notify_nodes(std::vector<int>& nodes);
  /// Stage policy-picked tasks of every live job (resident first, then
  /// missing up to each job's window) and issue their async reads.
  /// ns.mutex held via `lock`; the reads themselves are issued with it
  /// released.
  void stage_tasks(NodeState& ns, std::unique_lock<std::mutex>& lock,
                   const std::vector<JobPtr>& jobs);
  /// Issue prefetches for the next `prefetch_window` tasks of a job
  /// (blocking-io compatibility pass). ns.mutex held.
  void prefetch_blocking_locked(NodeState& ns, JobRun& jr);
  void execute(NodeState& ns, JobRun& jr, TaskId t, Staged* staged);
  /// Release the task's transient inputs, finish() it on the job's core,
  /// wake nodes that gained work, retire the job if that settled it. No
  /// locks held on entry.
  void complete(const JobPtr& jr, TaskId t);
  /// Fail the whole job (task body threw, or a storage error in plan-less
  /// mode): record the error, drop its staged inputs on every node, settle
  /// it. No locks held on entry.
  void fail_job(const JobPtr& jr, std::exception_ptr e);
  /// The job settled: build its Report, mark done, notify awaiters and the
  /// on-done callback. No locks held on entry.
  void retire_job(const JobPtr& jr);
  /// Start workers / open completion queues on first submit.
  void ensure_started();
  /// Bump every node's wake counter and notify. No ns.mutex held.
  void wake_all();

  storage::StorageCluster& cluster_;
  EngineConfig config_;
  std::vector<std::unique_ptr<ThreadPool>> split_pools_;
  std::unique_ptr<Probe> probe_;
  /// The cluster has a FaultPlan and we run completion-driven: storage
  /// errors go through the recovery policy instead of aborting the job.
  bool fault_tolerant_ = false;

  // Job table. Lock order: ns.mutex before jobs_mutex_; never the reverse.
  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;  ///< signalled on job done
  std::unordered_map<std::uint32_t, JobPtr> jobs_;
  /// Completion tags carry only the low 16 bits of the job id.
  std::unordered_map<std::uint16_t, JobPtr> jobs_by_tag_;
  std::atomic<std::uint32_t> next_job_id_{1};
  std::atomic<std::uint64_t> jobs_version_{0};  ///< bumped on add/retire
  std::function<void(std::uint32_t)> on_job_done_;

  std::vector<std::unique_ptr<NodeState>> node_states_;
  std::vector<std::thread> workers_;
  /// In-process telemetry sampler + watchdog, created in ensure_started()
  /// when DOOC_TELEMETRY enables it; nullptr otherwise.
  std::unique_ptr<obs::telemetry::LocalTelemetry> telemetry_;
  std::atomic<bool> shutdown_{false};
  bool started_ = false;  ///< guarded by start_mutex_
  std::mutex start_mutex_;

  std::mutex fault_mutex_;   ///< guards every JobRun's FaultSummary
};

}  // namespace dooc::sched
