#include "sched/global_scheduler.hpp"

#include "common/error.hpp"

namespace dooc::sched {

std::vector<int> GlobalScheduler::assign(const TaskGraph& graph, const DataLocator& locator) const {
  DOOC_REQUIRE(graph.built(), "assign() needs a built task graph");
  std::vector<int> assignment(graph.size(), -1);

  std::size_t rr_next = 0;
  for (TaskId t : graph.topo_order()) {
    const Task& task = graph.task(t);
    if (task.preferred_node >= 0) {
      DOOC_REQUIRE(task.preferred_node < num_nodes_,
                   "task '" + task.name + "' pinned to nonexistent node");
      assignment[t] = task.preferred_node;
      continue;
    }
    if (policy_ == GlobalPolicy::RoundRobin) {
      assignment[t] = static_cast<int>(rr_next++ % static_cast<std::size_t>(num_nodes_));
      continue;
    }
    // Affinity: count input bytes hosted per node. Intermediate inputs are
    // hosted where their producer was assigned.
    std::vector<std::uint64_t> hosted(static_cast<std::size_t>(num_nodes_), 0);
    for (const auto& in : task.inputs) {
      int host = -1;
      const TaskId producer = graph.writer_of(in);
      if (producer != kInvalidTask) {
        host = assignment[producer];
      } else {
        host = locator.home_of(in.array);
      }
      if (host >= 0 && host < num_nodes_) hosted[static_cast<std::size_t>(host)] += in.length;
    }
    int best = 0;
    for (int node = 1; node < num_nodes_; ++node) {
      if (hosted[static_cast<std::size_t>(node)] > hosted[static_cast<std::size_t>(best)]) {
        best = node;
      }
    }
    assignment[t] = best;
  }
  return assignment;
}

}  // namespace dooc::sched
