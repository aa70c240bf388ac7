#include "simcluster/sim_engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <initializer_list>
#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "obs/causal.hpp"
#include "obs/trace.hpp"

namespace dooc::sim {

using sched::Task;
using sched::TaskId;

namespace {
/// Inputs smaller than this are control messages (sync tokens): their cost
/// is part of the sync task's barrier charge, not a modeled transfer.
constexpr std::uint64_t kControlBytes = 4096;

/// Emit a Complete event stamped in *virtual* nanoseconds. Same schema as
/// the real backend (pid = virtual node, cat "task"/"io"), so the trace
/// reader and dooc_tracecat work unchanged on simulated runs.
void emit_virtual(std::string_view cat, std::string_view name, int pid, int tid,
                  double start_s, double dur_s,
                  std::initializer_list<std::pair<std::string_view, std::uint64_t>> args = {}) {
  obs::Event ev;
  ev.phase = obs::Phase::Complete;
  ev.cat = obs::intern(cat);
  ev.name = obs::intern(name);
  ev.pid = pid;
  ev.tid = tid;
  ev.ts_ns = static_cast<std::uint64_t>(start_s * 1e9);
  ev.dur_ns = static_cast<std::uint64_t>(dur_s * 1e9);
  for (const auto& [arg_name, arg_val] : args) {
    ev.arg_name[ev.nargs] = obs::intern(arg_name);
    ev.arg_val[ev.nargs] = arg_val;
    ++ev.nargs;
  }
  obs::TraceSession::instance().emit(ev);
}

/// Flow point stamped in virtual nanoseconds. Correlation ids come from the
/// same obs::causal::flow_id_* functions the real engine uses, so a DES
/// trace and an engine trace of the same graph correlate identically.
void emit_virtual_flow(obs::Phase phase, std::string_view cat, std::string_view name, int pid,
                       int tid, double ts_s, std::uint64_t flow_id,
                       std::string_view arg_name = {}, std::uint64_t arg_val = 0) {
  obs::emit_flow(phase, obs::intern(cat), obs::intern(name), pid, tid,
                 static_cast<std::uint64_t>(ts_s * 1e9), flow_id,
                 arg_name.empty() ? 0 : obs::intern(arg_name), arg_val);
}
}  // namespace

struct SimEngine::NodeState {
  /// A fetch waiting for fair-share admission.
  struct Deferred {
    std::string array;
    std::uint64_t bytes = 0;
    std::uint64_t since_ns = 0;
  };

  int node = -1;
  /// Running compute, up to SimResources::compute_slots: (job, task, end time).
  std::vector<std::tuple<std::uint32_t, TaskId, double>> running;
  std::uint64_t rr = 0;  ///< compute round-robin rotation over the jobs
  // Memory accounting.
  std::uint64_t used_bytes = 0;
  std::uint64_t inflight_bytes = 0;
  std::map<std::string, std::uint64_t> lru_tick;  // resident arrays
  std::map<std::string, int> pins;
  std::uint64_t tick = 0;
  std::uint64_t tasks_done = 0;  ///< completed tasks (telemetry frames)
  // Fair-share fetch admission (inflight_load_budget != 0).
  FairShare fair;
  std::map<TenantId, std::deque<Deferred>> deferred;  ///< per-job FIFO of waiting fetches
  std::map<std::string, std::uint32_t> fetch_job;     ///< array in flight -> job charged

  [[nodiscard]] bool others_waiting(TenantId tenant) const {
    for (const auto& [t, q] : deferred) {
      if (t != tenant && !q.empty()) return true;
    }
    return false;
  }
};

/// One submitted job: its ExecutorCore and accounting. The DES mirror of
/// the multi-tenant engine's JobRun.
struct SimEngine::Job {
  const SimJob* spec = nullptr;
  std::uint32_t idx = 0;
  std::vector<int> assignment;
  std::unique_ptr<sched::ExecutorCore> core;
  bool done = false;
  double finish = 0.0;
  double flops = 0.0;
  std::uint64_t tasks = 0;
};

SimEngine::~SimEngine() = default;

SimEngine::SimEngine(int num_nodes, SimResources resources,
                     std::map<std::string, solver::VirtualArray> arrays)
    : num_nodes_(num_nodes), res_(std::move(resources)), meta_(std::move(arrays)) {
  DOOC_REQUIRE(num_nodes > 0, "simulated cluster needs at least one node");
}

double SimEngine::task_duration(const Task& task) const {
  if (task.kind == "sync") return res_.sync_cost;
  if (task.kind == "multiply") {
    return task.est_flops / res_.compute_rate + res_.task_overhead;
  }
  if (task.kind == "sum" || task.kind == "aggregate") {
    std::uint64_t touched = 0;
    for (const auto& in : task.inputs) {
      if (in.length > kControlBytes) touched += in.length;
    }
    for (const auto& out : task.outputs) touched += out.length;
    return static_cast<double>(touched) / res_.mem_bw + res_.task_overhead;
  }
  return task.est_flops / res_.compute_rate + res_.task_overhead;
}

double SimEngine::decode_delay_s(const ArrayState& st) const {
  if (st.stored == 0 || res_.decode_rate <= 0.0) return 0.0;
  return static_cast<double>(st.bytes) / res_.decode_rate;
}

bool SimEngine::inputs_resident(int node, const Task& task) {
  if (task.kind == "sync") return true;  // control-only
  for (const auto& in : task.inputs) {
    if (in.length <= kControlBytes) continue;
    const auto it = arrays_.find(in.array);
    if (it == arrays_.end() || it->second.resident_on.count(node) == 0) return false;
  }
  return true;
}

std::uint64_t SimEngine::resident_input_bytes(int node, const Task& task) {
  std::uint64_t bytes = 0;
  for (const auto& in : task.inputs) {
    const auto it = arrays_.find(in.array);
    if (it != arrays_.end() && it->second.resident_on.count(node) != 0) bytes += in.length;
  }
  return bytes;
}

void SimEngine::evict_for(NodeState& ns, std::uint64_t incoming) {
  while (ns.used_bytes + ns.inflight_bytes + incoming > res_.node_memory) {
    // LRU over durable, unpinned resident arrays.
    const std::string* victim = nullptr;
    std::uint64_t best_tick = 0;
    for (const auto& [name, tick] : ns.lru_tick) {
      if (!arrays_.at(name).durable) continue;
      auto pin = ns.pins.find(name);
      if (pin != ns.pins.end() && pin->second > 0) continue;
      if (victim == nullptr || tick < best_tick) {
        victim = &name;
        best_tick = tick;
      }
    }
    if (victim == nullptr) return;  // allow overshoot (mirrors the real storage layer)
    const std::string name = *victim;
    auto& st = arrays_.at(name);
    st.resident_on.erase(ns.node);
    ns.used_bytes -= st.bytes;
    ns.lru_tick.erase(name);
    ns.pins.erase(name);
  }
}

void SimEngine::make_resident(int node, const std::string& array) {
  auto& st = arrays_.at(array);
  if (st.resident_on.insert(node).second) {
    auto& ns = *nodes_[static_cast<std::size_t>(node)];
    ns.used_bytes += st.bytes;
    ns.lru_tick[array] = ++ns.tick;
  }
}

bool SimEngine::start_fetch(NodeState& ns, const std::string& array) {
  auto it = arrays_.find(array);
  if (it == arrays_.end()) return false;
  ArrayState& st = it->second;
  if (st.bytes <= kControlBytes) return false;
  if (st.resident_on.count(ns.node) != 0 || st.fetching_on.count(ns.node) != 0) return false;
  if (plan_ != nullptr) {
    if (plan_->node_down(ns.node)) return false;  // a down node issues no fetches
    const auto bit = blocked_until_.find({ns.node, array});
    if (bit != blocked_until_.end() && bit->second > now_) return false;  // backoff in force
  }

  std::vector<ResourceId> path;
  double own_cap = 0.0;
  // Stored-encoded arrays move their (smaller) codec-frame size over the
  // filesystem — the bandwidth half of the compression trade. The memory
  // reservation stays the raw size (that is what becomes resident).
  std::uint64_t wire_bytes = st.bytes;
  if (st.durable) {
    // Filesystem read through the node's GPFS client and the shared
    // aggregate, individually perturbed by bandwidth noise.
    path = {gpfs_node_link_[static_cast<std::size_t>(ns.node)], gpfs_aggregate_};
    SplitMix64 rng(res_.seed ^ (noise_state_++ * 0x9e3779b97f4a7c15ull));
    const double factor = 1.0 - res_.bw_noise * rng.next_double();
    own_cap = res_.node_read_cap * factor;
    if (st.stored != 0) wire_bytes = st.stored;
  } else {
    // Produced data: fetch over IB from a live node that holds it.
    int src = -1;
    for (int cand : st.resident_on) {
      if (plan_ != nullptr && plan_->node_down(cand)) continue;  // holder unreachable
      src = cand;
      break;
    }
    // No holder yet (producer not done), or every holder is down: wait.
    if (src < 0) return false;
    path = {ib_egress_[static_cast<std::size_t>(src)],
            ib_ingress_[static_cast<std::size_t>(ns.node)]};
  }

  // Memory admission control for the incoming copy.
  evict_for(ns, st.bytes);
  if (ns.used_bytes + ns.inflight_bytes + st.bytes > res_.node_memory &&
      ns.used_bytes + ns.inflight_bytes > 0) {
    return false;  // try again later; something will drain
  }

  ns.inflight_bytes += st.bytes;
  st.fetching_on.insert(ns.node);
  const FlowId id = net_.start_flow(wire_bytes, std::move(path), own_cap);
  flow_target_[id] = {ns.node, array};
  flow_start_[id] = now_;
  if (obs::trace_enabled()) {
    // Same lane as the io span emitted at flow completion (100 + id%16).
    emit_virtual_flow(obs::Phase::FlowStart, "load", "read-issue", ns.node,
                      100 + static_cast<int>(id % 16), now_,
                      obs::causal::flow_id_load(array, 0));
  }
  if (st.durable) {
    gpfs_flows_.insert(id);
    metrics_.disk_bytes += wire_bytes;
  } else {
    metrics_.net_bytes += wire_bytes;
  }
  return true;
}

void SimEngine::fetch(NodeState& ns, const Job& job, const std::string& array) {
  if (res_.inflight_load_budget == 0) {
    (void)start_fetch(ns, array);
    return;
  }
  const auto it = arrays_.find(array);
  if (it == arrays_.end() || it->second.bytes <= kControlBytes) return;
  const ArrayState& st = it->second;
  if (st.resident_on.count(ns.node) != 0 || st.fetching_on.count(ns.node) != 0) return;
  auto& queue = ns.deferred[job.idx];
  for (const auto& d : queue) {
    if (d.array == array) return;  // already waiting for admission
  }
  if (!ns.fair.try_admit(job.idx, st.bytes, ns.others_waiting(job.idx))) {
    queue.push_back({array, st.bytes, static_cast<std::uint64_t>(now_ * 1e9)});
    ++metrics_.deferred_fetches;
    return;
  }
  if (start_fetch(ns, array)) {
    ns.fair.charge(job.idx, st.bytes);
    ns.fetch_job[array] = job.idx;
  }
}

void SimEngine::drain_deferred(NodeState& ns) {
  if (res_.inflight_load_budget == 0) return;
  while (true) {
    std::vector<FairShare::Head> heads;
    for (auto qit = ns.deferred.begin(); qit != ns.deferred.end();) {
      auto& q = qit->second;
      // Entries whose array landed meanwhile (another job fetched it, or
      // a producer output it here) are satisfied already.
      while (!q.empty()) {
        const auto ait = arrays_.find(q.front().array);
        if (ait != arrays_.end() && ait->second.resident_on.count(ns.node) == 0 &&
            ait->second.fetching_on.count(ns.node) == 0) {
          break;
        }
        q.pop_front();
      }
      if (q.empty()) {
        qit = ns.deferred.erase(qit);
        continue;
      }
      heads.push_back(FairShare::Head{qit->first, q.front().bytes, q.front().since_ns});
      ++qit;
    }
    if (heads.empty()) return;
    const TenantId granted = ns.fair.pick(heads, static_cast<std::uint64_t>(now_ * 1e9));
    if (granted == FairShare::kNone) return;
    auto& q = ns.deferred.at(granted);
    if (!start_fetch(ns, q.front().array)) {
      // Refused (memory pressure, a backoff gate, an outage): stop — it
      // clears when running tasks finish, flows land or the gate expires.
      return;
    }
    ns.fair.charge(granted, q.front().bytes);
    ns.fetch_job[q.front().array] = granted;
    q.pop_front();
    if (q.empty()) ns.deferred.erase(granted);
  }
}

bool SimEngine::active(const Job& job) const {
  return !job.done && job.spec->arrival <= now_ + 1e-12;
}

std::vector<SimEngine::Job*> SimEngine::job_order(const NodeState& ns) {
  // Priority desc, index asc, rotated within the top tier — same ordering
  // rule as the engine's job_snapshot.
  std::vector<Job*> order;
  for (Job& j : jobs_) {
    if (active(j)) order.push_back(&j);
  }
  std::sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    if (a->spec->priority != b->spec->priority) return a->spec->priority > b->spec->priority;
    return a->idx < b->idx;
  });
  std::size_t tier = order.empty() ? 0 : 1;
  while (tier < order.size() && order[tier]->spec->priority == order[0]->spec->priority) ++tier;
  if (tier > 1) {
    const std::size_t off = static_cast<std::size_t>(ns.rr) % tier;
    std::rotate(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(off),
                order.begin() + static_cast<std::ptrdiff_t>(tier));
  }
  return order;
}

bool SimEngine::node_busy(const NodeState& ns) const {
  if (!ns.running.empty()) return true;
  for (const Job& j : jobs_) {
    if (active(j) && (j.core->backlog(ns.node) > 0 || j.core->pending(ns.node) > 0 ||
                      j.core->runnable(ns.node) > 0)) {
      return true;
    }
  }
  return false;
}

void SimEngine::schedule_node(NodeState& ns) {
  using sched::StageDecision;
  using sched::StageSelect;

  if (plan_ != nullptr && plan_->node_down(ns.node)) {
    // A down node serves nothing and starts nothing; compute already in
    // flight finishes. Its op clock still ticks once per stalled scheduling
    // round so bounded outage windows (down=N@AFTER+OPS) expire under
    // virtual time.
    if (node_busy(ns)) (void)plan_->next_read(ns.node);
    return;
  }
  const std::vector<Job*> order = job_order(ns);
  if (order.empty()) return;

  // 1+2. Let each core re-probe residency (staged tasks whose flows landed
  //      become Runnable; runnable tasks whose data was evicted fall back),
  //      then stage fully-resident candidates — they never consume the
  //      prefetch window and become Runnable immediately.
  for (Job* j : order) {
    j->core->refresh(ns.node);
    while (true) {
      const StageDecision d = j->core->next_to_stage(ns.node, StageSelect::Resident);
      if (d.task == sched::kInvalidTask) break;
      j->core->stage(d.task, 0);
    }
  }

  // 3. Fill the shared compute slots round-robin over the jobs (a node's
  //    compute filters run concurrently on its cores). The rotation is
  //    re-derived after every grant: a single call often fills several
  //    slots, and advancing rr without re-rotating lets the offset alias
  //    with the pick count (e.g. two jobs, two slots per wake-up → the same
  //    job wins the front position forever). Inputs pin for the task's
  //    duration — before step 4's fetches can trigger evictions.
  while (static_cast<int>(ns.running.size()) < res_.compute_slots) {
    Job* picked = nullptr;
    TaskId t = sched::kInvalidTask;
    for (Job* j : job_order(ns)) {
      t = j->core->take_runnable(ns.node);
      if (t != sched::kInvalidTask) {
        picked = j;
        break;
      }
    }
    if (picked == nullptr) break;
    ++ns.rr;
    const Task& task = picked->spec->graph->task(t);
    double dur = task_duration(task);
    // Injected straggler: this node's compute is uniformly slower.
    if (const auto f = res_.node_compute_factor.find(ns.node);
        f != res_.node_compute_factor.end()) {
      dur *= f->second;
    }
    ns.running.emplace_back(picked->idx, t, now_ + dur);
    if (obs::trace_enabled()) {
      // Slot index the task just took doubles as its compute-lane tid.
      const int tid = static_cast<int>(ns.running.size()) - 1;
      emit_virtual("task", task.name, ns.node, tid, now_, dur,
                   {{"task", t}, {"job", picked->idx}});
      for (const auto& in : task.inputs) {
        // Close the producer→consumer dep flow, and (for bulk inputs) the
        // load flow of the fetch that made the input resident here — an
        // input this node never fetched leaves an orphan 'f', which both
        // viewers and the causal graph drop.
        emit_virtual_flow(obs::Phase::FlowEnd, "dep", "consume", ns.node, tid, now_,
                          obs::causal::flow_id_dep(in.array), "task", t);
        if (in.length > kControlBytes) {
          emit_virtual_flow(obs::Phase::FlowEnd, "load", "load-ready", ns.node, tid, now_,
                            obs::causal::flow_id_load(in.array, 0), "task", t);
        }
      }
    }
    for (const auto& in : task.inputs) {
      if (in.length <= kControlBytes) continue;
      ++ns.pins[in.array];
      ns.lru_tick[in.array] = ++ns.tick;
    }
  }

  // 4. Keep the I/O pipeline full: stage tasks with missing data up to each
  //    job's prefetch window and issue their fetches through the fair-share
  //    arbiter. The input count is symbolic (the DES promotes by
  //    re-probing, not by counting arrival events). Staged tasks whose
  //    admission was deferred on memory pressure re-issue their fetches
  //    (a no-op for flows already running).
  for (Job* j : order) {
    while (true) {
      const StageDecision d = j->core->next_to_stage(ns.node, StageSelect::Missing);
      if (d.task == sched::kInvalidTask) break;
      j->core->stage(d.task, 1);
      for (const auto& in : j->spec->graph->task(d.task).inputs) fetch(ns, *j, in.array);
    }
    for (const TaskId pending : j->core->pending_tasks(ns.node)) {
      for (const auto& in : j->spec->graph->task(pending).inputs) fetch(ns, *j, in.array);
    }
  }
  drain_deferred(ns);
}

void SimEngine::release_reader(const std::string& array) {
  auto it = arrays_.find(array);
  if (it == arrays_.end()) return;
  ArrayState& st = it->second;
  if (--st.readers_remaining > 0) return;
  // Last reader done: drop every copy (intermediates and spent inputs).
  for (int node : st.resident_on) {
    auto& ns = *nodes_[static_cast<std::size_t>(node)];
    ns.used_bytes -= st.bytes;
    ns.lru_tick.erase(array);
    ns.pins.erase(array);
  }
  st.resident_on.clear();
}

void SimEngine::fault_consumers(int node, const std::string& array) {
  for (Job& j : jobs_) {
    for (const TaskId t : j.core->pending_tasks(node)) {
      const auto& inputs = j.spec->graph->task(t).inputs;
      if (std::none_of(inputs.begin(), inputs.end(),
                       [&](const auto& in) { return in.array == array; })) {
        continue;
      }
      std::vector<TaskId> poisoned;
      if (j.core->fault(t, &poisoned) == sched::ExecutorCore::FaultAction::Poisoned) {
        metrics_.tasks_faulted += poisoned.size();
        if (obs::trace_enabled()) {
          obs::emit_instant(obs::intern("fault"), obs::intern("task-poisoned"), node, 0);
        }
      }
    }
  }
}

void SimEngine::finish_task(NodeState& ns, Job& job, TaskId t) {
  const Task& task = job.spec->graph->task(t);

  // Unpin inputs and account their consumption.
  for (const auto& in : task.inputs) {
    if (in.length > kControlBytes) {
      auto pin = ns.pins.find(in.array);
      if (pin != ns.pins.end() && pin->second > 0) --pin->second;
    }
    release_reader(in.array);
  }
  // Outputs become resident here.
  for (const auto& out : task.outputs) {
    evict_for(ns, arrays_.at(out.array).bytes);
    make_resident(ns.node, out.array);
    if (obs::trace_enabled()) {
      emit_virtual_flow(obs::Phase::FlowStart, "dep", "produce", ns.node, 0, now_,
                        obs::causal::flow_id_dep(out.array), "task", t);
    }
  }
  metrics_.total_flops += task.est_flops;
  job.flops += task.est_flops;
  ++job.tasks;
  ++ns.tasks_done;

  std::vector<std::pair<int, TaskId>> newly_assigned;
  job.core->finish(t, newly_assigned);  // dependents enter the core's queues
}

SimMetrics SimEngine::run(const sched::TaskGraph& graph, sched::LocalPolicy policy) {
  return run_jobs({SimJob{&graph}}, policy);
}

SimMetrics SimEngine::run_jobs(const std::vector<SimJob>& jobs, sched::LocalPolicy policy) {
  DOOC_REQUIRE(!jobs.empty(), "run_jobs() needs at least one job");
  now_ = 0;
  metrics_ = SimMetrics{};
  metrics_.nodes = num_nodes_;
  metrics_.cores_per_node = res_.cores_per_node;
  net_ = FlowNetwork{};
  flow_target_.clear();
  flow_start_.clear();
  gpfs_flows_.clear();
  noise_state_ = 0;
  // Programmatic plan wins; DOOC_FAULTS reaches the DES the same way it
  // reaches a real StorageCluster. `hold` keeps an env-derived plan alive
  // for the duration of the run.
  const std::shared_ptr<fault::FaultPlan> hold =
      fault_plan_ != nullptr ? fault_plan_ : fault::FaultPlan::from_env();
  plan_ = hold != nullptr && hold->enabled() ? hold.get() : nullptr;
  fetch_failures_.clear();
  blocked_until_.clear();
  arriving_.clear();

  // Resources.
  gpfs_node_link_.clear();
  ib_egress_.clear();
  ib_ingress_.clear();
  gpfs_aggregate_ = net_.add_resource("gpfs", res_.aggregate_read_cap);
  for (int n = 0; n < num_nodes_; ++n) {
    gpfs_node_link_.push_back(
        net_.add_resource("gpfs_client_" + std::to_string(n), res_.node_read_cap));
    ib_egress_.push_back(net_.add_resource("ib_out_" + std::to_string(n), res_.ib_link));
    ib_ingress_.push_back(net_.add_resource("ib_in_" + std::to_string(n), res_.ib_link));
  }

  // Array state is shared: read counts pool across jobs, so a durable
  // array read by several jobs survives until its last reader anywhere.
  // Written arrays must be private to one job (namespace them).
  arrays_.clear();
  for (const auto& [name, meta] : meta_) {
    ArrayState st;
    st.bytes = meta.bytes;
    st.stored = meta.stored_bytes;
    st.durable = meta.durable;
    arrays_.emplace(name, st);
  }
  std::map<std::string, std::uint32_t> writer_job;
  std::size_t total = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const SimJob& spec = jobs[j];
    DOOC_REQUIRE(spec.graph != nullptr && spec.graph->built(),
                 "run_jobs() needs built task graphs");
    DOOC_REQUIRE(spec.weight > 0.0, "job weight must be positive");
    total += spec.graph->size();
    for (TaskId t = 0; t < spec.graph->size(); ++t) {
      for (const auto& in : spec.graph->task(t).inputs) {
        auto it = arrays_.find(in.array);
        DOOC_REQUIRE(it != arrays_.end(), "task reads unknown array '" + in.array + "'");
        ++it->second.readers_remaining;
      }
      for (const auto& out : spec.graph->task(t).outputs) {
        const auto [wit, inserted] = writer_job.emplace(out.array, static_cast<std::uint32_t>(j));
        DOOC_REQUIRE(inserted || wit->second == j,
                     "jobs " + std::to_string(wit->second) + " and " + std::to_string(j) +
                         " both write array '" + out.array + "' — namespace per-job arrays");
      }
    }
  }

  // Per-node state, with the same WDRR fetch arbiter the real storage
  // layer runs, clocked in virtual nanoseconds.
  FairShareConfig fair_config = res_.fair_share;
  fair_config.budget_bytes = res_.inflight_load_budget;
  nodes_.clear();
  for (int n = 0; n < num_nodes_; ++n) {
    auto ns = std::make_unique<NodeState>();
    ns->node = n;
    ns->fair.set_config(fair_config);
    nodes_.push_back(std::move(ns));
  }

  // Global assignment (same affinity heuristic as the real engine), then
  // one shared execution state machine per job (dependency counting,
  // per-node queues, policy order, prefetch window) — same core as
  // sched::Engine.
  class VirtualLocator final : public sched::DataLocator {
   public:
    explicit VirtualLocator(const std::map<std::string, solver::VirtualArray>* m) : m_(m) {}
    [[nodiscard]] int home_of(const storage::ArrayName& name) const override {
      auto it = m_->find(name);
      return it == m_->end() ? -1 : it->second.home_node;
    }

   private:
    const std::map<std::string, solver::VirtualArray>* m_;
  };
  const VirtualLocator locator(&meta_);
  sched::CoreConfig core_config;
  core_config.policy = policy;
  core_config.prefetch_window = res_.prefetch_window;
  core_config.demand_slots = 0;  // the DES never demand-stages past the window
  jobs_.clear();
  jobs_.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Job& job = jobs_[j];
    job.spec = &jobs[j];
    job.idx = static_cast<std::uint32_t>(j);
    job.assignment = sched::GlobalScheduler(num_nodes_).assign(*jobs[j].graph, locator);
    job.core = std::make_unique<sched::ExecutorCore>(*jobs[j].graph, job.assignment, num_nodes_,
                                                     core_config,
                                                     static_cast<sched::ResidencyProbe*>(this));
    for (auto& ns : nodes_) ns->fair.set_tenant(job.idx, jobs[j].weight, jobs[j].priority);
  }

  // Virtual-time telemetry replay: the same Hub + Watchdog the coordinator
  // runs, fed per-node frames on the configured cadence of *virtual*
  // seconds. Telemetry charges no modeled cost, so makespans are identical
  // with it on or off — only the verdicts (SimMetrics::health) appear.
  const bool telemetry_on = res_.telemetry.enabled;
  std::optional<obs::telemetry::TelemetryHub> hub;
  std::optional<obs::telemetry::Watchdog> watchdog;
  std::vector<std::uint64_t> telemetry_seq(static_cast<std::size_t>(num_nodes_), 0);
  const double telemetry_interval_s = static_cast<double>(res_.telemetry.interval_ms) * 1e-3;
  double next_telemetry_s = 0.0;
  if (telemetry_on) {
    hub.emplace(res_.telemetry.history);
    watchdog.emplace(res_.telemetry);
  }
  const auto telemetry_tick = [&](double at_s) {
    const auto vns = static_cast<std::uint64_t>(at_s * 1e9);
    for (const auto& ns : nodes_) {
      const int n = ns->node;
      if (const auto mute = res_.node_telemetry_mute_after.find(n);
          mute != res_.node_telemetry_mute_after.end() && at_s > mute->second) {
        continue;  // the SIGSTOP drill: heartbeats vanish, compute does not
      }
      obs::telemetry::TelemetryFrame f;
      f.node = n;
      f.seq = telemetry_seq[static_cast<std::size_t>(n)]++;
      f.ts_ns = vns;
      f.tasks_executed = ns->tasks_done;
      f.tasks_inflight = ns->running.size();
      for (const Job& j : jobs_) {
        if (!active(j)) continue;
        f.tasks_inflight += j.core->pending(n);
        f.queue_depth += j.core->backlog(n) + j.core->runnable(n);
      }
      f.inflight_bytes = ns->inflight_bytes;
      hub->add(f, vns);
      ++metrics_.telemetry_frames;
    }
    for (auto& e : watchdog->poll(*hub, vns)) metrics_.health.push_back(std::move(e));
  };

  // A job is done once it has arrived and its core settled every task
  // (ran, or faulted/poisoned); its finish is the virtual time it settled.
  const auto all_done = [&] {
    bool done = true;
    for (Job& j : jobs_) {
      if (active(j) && j.core->all_settled()) {
        j.done = true;
        j.finish = now_;
      }
      done = done && j.done;
    }
    return done;
  };

  // Main event loop.
  std::size_t guard = 0;
  const std::size_t guard_limit = 100 * total + 100000;
  while (!all_done()) {
    DOOC_CHECK(++guard < guard_limit, "simulation event-loop guard tripped");
    // Due telemetry ticks fire before scheduling so frames snapshot the
    // state as of the tick time, exactly like a daemon's cadence.
    while (telemetry_on && next_telemetry_s <= now_ + 1e-12) {
      telemetry_tick(next_telemetry_s);
      next_telemetry_s += telemetry_interval_s;
    }
    // Expired backoff gates are consumed (start_fetch may retry now);
    // live ones bound dt below so the clock jumps straight to the retry.
    for (auto it = blocked_until_.begin(); it != blocked_until_.end();) {
      it = it->second <= now_ ? blocked_until_.erase(it) : std::next(it);
    }
    for (auto& ns : nodes_) schedule_node(*ns);

    double dt = net_.next_completion_delta();
    for (const auto& ns : nodes_) {
      for (const auto& [j, t, end] : ns->running) dt = std::min(dt, end - now_);
    }
    for (const Job& j : jobs_) {
      if (!j.done && j.spec->arrival > now_ + 1e-12) dt = std::min(dt, j.spec->arrival - now_);
    }
    for (const auto& [key, until] : blocked_until_) dt = std::min(dt, until - now_);
    for (const auto& [when, n, a] : arriving_) dt = std::min(dt, when - now_);
    if (telemetry_on && std::isfinite(dt)) dt = std::min(dt, next_telemetry_s - now_);
    if (!std::isfinite(dt)) {
      // Nothing in flight: either we just enabled work (loop again) or the
      // graph is stuck.
      DOOC_CHECK(std::any_of(nodes_.begin(), nodes_.end(),
                             [&](const auto& ns) { return node_busy(*ns); }),
                 "simulated execution deadlocked");
      // A node has ready tasks but can neither run nor fetch — this only
      // happens transiently when fetches were deferred on memory pressure;
      // re-running schedule_node after other nodes drained resolves it.
      // Guard against a true livelock by charging a small idle step.
      now_ += 1e-3;
      continue;
    }
    dt = std::max(dt, 0.0);
    if (!gpfs_flows_.empty()) metrics_.gpfs_busy += dt;
    const auto finished = net_.advance(dt);
    now_ += dt;
    for (FlowId id : finished) {
      const auto [node, array] = flow_target_.at(id);
      flow_target_.erase(id);
      const bool was_gpfs = gpfs_flows_.erase(id) != 0;
      auto& ns = *nodes_[static_cast<std::size_t>(node)];
      auto& st = arrays_.at(array);
      const double dec = decode_delay_s(st);
      if (const auto sit = flow_start_.find(id); sit != flow_start_.end()) {
        if (obs::trace_enabled()) {
          emit_virtual("io", was_gpfs ? "gpfs_read" : "ib_fetch", node,
                       100 + static_cast<int>(id % 16), sit->second, now_ - sit->second,
                       {{"bytes", st.stored != 0 ? st.stored : st.bytes}});
          if (dec > 0.0) {
            // Same cat/name as the real fetcher-thread decompression span,
            // so the causal layer attributes kBlameDecode on both backends.
            emit_virtual("storage", "decode", node, 100 + static_cast<int>(id % 16), now_, dec,
                         {{"bytes", st.bytes}});
          }
          // Delivery is when raw data exists — after the decode.
          emit_virtual_flow(obs::Phase::FlowStep, "load", "deliver", node,
                            100 + static_cast<int>(id % 16), now_ + dec,
                            obs::causal::flow_id_load(array, 0));
        }
        flow_start_.erase(sit);
      }
      st.fetching_on.erase(node);
      ns.inflight_bytes -= st.bytes;
      if (const auto fj = ns.fetch_job.find(array); fj != ns.fetch_job.end()) {
        ns.fair.release(fj->second, st.bytes);
        ns.fetch_job.erase(fj);
      }
      // One completed fetch = one storage op against `node`: draw the same
      // deterministic verdict the real I/O filters would.
      fault::FaultDecision verdict;
      if (plan_ != nullptr) verdict = plan_->next_read(node);
      using Action = fault::FaultDecision::Action;
      if (verdict.action == Action::Fail || verdict.action == Action::ShortRead) {
        const auto key = std::make_pair(node, array);
        const int failures = ++fetch_failures_[key];
        const fault::RetryPolicy& rp = plan_->config().retry;
        ++metrics_.fetch_faults;
        if (failures < rp.max_attempts) {
          // Not resident: start_fetch re-issues once the backoff expires.
          ++metrics_.fetch_retries;
          blocked_until_[key] = now_ + fault::backoff_delay_s(rp, failures);
        } else {
          // Budget exhausted: consumers retry or poison through the core.
          // The failure count resets so a retried consumer starts a fresh
          // fetch budget (mirroring the real engine's per-staging retries).
          fetch_failures_.erase(key);
          blocked_until_.erase(key);
          fault_consumers(node, array);
        }
      } else if (verdict.action == Action::Delay && verdict.delay_s > 0.0) {
        arriving_.emplace_back(now_ + verdict.delay_s + dec, node, array);
      } else if (st.readers_remaining > 0) {
        // Residency waits out the modeled decompression (the real layer
        // installs a block only after its fetcher thread decoded the frame).
        if (dec > 0.0) {
          arriving_.emplace_back(now_ + dec, node, array);
        } else {
          make_resident(node, array);
        }
      }
      drain_deferred(ns);
    }
    // Deferred deliveries (decode latency, latency spikes) now due.
    for (auto it = arriving_.begin(); it != arriving_.end();) {
      if (std::get<0>(*it) <= now_ + 1e-12) {
        if (arrays_.at(std::get<2>(*it)).readers_remaining > 0) {
          make_resident(std::get<1>(*it), std::get<2>(*it));
        }
        it = arriving_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& ns : nodes_) {
      for (std::size_t i = 0; i < ns->running.size();) {
        const auto [j, t, end] = ns->running[i];
        if (end <= now_ + 1e-12) {
          ns->running.erase(ns->running.begin() + static_cast<std::ptrdiff_t>(i));
          finish_task(*ns, jobs_[j], t);
        } else {
          ++i;
        }
      }
    }
  }

  metrics_.makespan = now_;
  for (const auto& ns : nodes_) metrics_.starvation_overrides += ns->fair.starvation_overrides();
  for (const Job& j : jobs_) {
    metrics_.jobs.push_back(SimJobMetrics{j.idx, j.spec->arrival, j.finish,
                                          j.finish - j.spec->arrival, j.flops, j.tasks});
  }
  jobs_.clear();    // the cores hold pointers into the graphs
  plan_ = nullptr;  // `hold` dies with this frame
  return std::exchange(metrics_, SimMetrics{});
}

double SimMetrics::jain(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sq += x * x;
  }
  return sq > 0.0 ? (sum * sum) / (static_cast<double>(xs.size()) * sq) : 1.0;
}

}  // namespace dooc::sim
