#include "sim/graph.h"

#include <algorithm>

#include "common/error.h"

namespace dapple::sim {

TaskId TaskGraph::AddTask(Task task) {
  DAPPLE_CHECK_GE(task.duration, 0.0) << "task " << task.name;
  DAPPLE_CHECK_GE(task.resource, 0) << "task " << task.name;
  const TaskId id = static_cast<TaskId>(tasks_.size());
  task.id = id;
  tasks_.push_back(std::move(task));
  successors_.emplace_back();
  predecessors_.emplace_back();
  in_degree_.push_back(0);
  return id;
}

void TaskGraph::AddEdge(TaskId predecessor, TaskId successor) {
  DAPPLE_CHECK(predecessor >= 0 && predecessor < num_tasks()) << "bad edge source";
  DAPPLE_CHECK(successor >= 0 && successor < num_tasks()) << "bad edge target";
  DAPPLE_CHECK_NE(predecessor, successor) << "self edge on task " << predecessor;
  auto& succ = successors_[static_cast<std::size_t>(predecessor)];
  if (std::find(succ.begin(), succ.end(), successor) != succ.end()) return;
  succ.push_back(successor);
  predecessors_[static_cast<std::size_t>(successor)].push_back(predecessor);
  in_degree_[static_cast<std::size_t>(successor)]++;
}

const Task& TaskGraph::task(TaskId id) const {
  return tasks_.at(static_cast<std::size_t>(id));
}

Task& TaskGraph::mutable_task(TaskId id) { return tasks_.at(static_cast<std::size_t>(id)); }

const std::vector<TaskId>& TaskGraph::successors(TaskId id) const {
  return successors_.at(static_cast<std::size_t>(id));
}

const std::vector<TaskId>& TaskGraph::predecessors(TaskId id) const {
  return predecessors_.at(static_cast<std::size_t>(id));
}

int TaskGraph::in_degree(TaskId id) const {
  return in_degree_.at(static_cast<std::size_t>(id));
}

int TaskGraph::num_resources() const {
  int max_id = -1;
  for (const Task& t : tasks_) max_id = std::max(max_id, t.resource);
  return max_id + 1;
}

int TaskGraph::num_pools() const {
  int max_id = -1;
  for (const Task& t : tasks_) max_id = std::max(max_id, t.pool);
  return max_id + 1;
}

namespace {

/// Packs (priority, id) into one unsigned key whose integer order equals
/// the lexicographic dispatch order: the signed priority is biased into the
/// high 32 bits, the (non-negative) task id fills the low 32.
std::uint64_t PackReadyKey(int priority, TaskId id) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(priority) ^ 0x80000000u)
          << 32) |
         static_cast<std::uint32_t>(id);
}

}  // namespace

void SoaGraph::Assign(const TaskGraph& graph) {
  source_ = &graph;
  const int n = graph.num_tasks();
  num_tasks_ = n;
  num_resources_ = std::max(graph.num_resources(), 1);
  num_pools_ = graph.num_pools();

  const auto un = static_cast<std::size_t>(n);
  duration_.resize(un);
  resource_.resize(un);
  in_degree_.resize(un);
  is_compute_.resize(un);
  alloc_pool_.resize(un);
  free_pool_.resize(un);
  alloc_bytes_.resize(un);
  free_bytes_.resize(un);
  ready_key_.resize(un);
  succ_offsets_.resize(un + 1);

  std::size_t edges = 0;
  for (TaskId t = 0; t < n; ++t) edges += graph.successors(t).size();
  succ_.resize(edges);

  std::int32_t offset = 0;
  for (TaskId t = 0; t < n; ++t) {
    const Task& task = graph.task(t);
    const auto ut = static_cast<std::size_t>(t);
    duration_[ut] = task.duration;
    resource_[ut] = task.resource;
    in_degree_[ut] = graph.in_degree(t);
    is_compute_[ut] = IsComputeKind(task.kind) ? 1 : 0;
    alloc_pool_[ut] = task.pool >= 0 && task.alloc_at_start > 0 ? task.pool : -1;
    free_pool_[ut] = task.pool >= 0 && task.free_at_end > 0 ? task.pool : -1;
    alloc_bytes_[ut] = task.alloc_at_start;
    free_bytes_[ut] = task.free_at_end;
    ready_key_[ut] = PackReadyKey(task.priority, t);
    succ_offsets_[ut] = offset;
    for (TaskId s : graph.successors(t)) {
      succ_[static_cast<std::size_t>(offset++)] = s;
    }
  }
  succ_offsets_[un] = offset;
}

}  // namespace dapple::sim
