#include "sim/graph.h"

#include <algorithm>

#include "common/error.h"

namespace dapple::sim {

void TaskGraph::Reserve(int num_tasks) {
  DAPPLE_CHECK_GE(num_tasks, 0);
  tasks_.reserve(static_cast<std::size_t>(num_tasks));
  successors_.reserve(static_cast<std::size_t>(num_tasks));
}

TaskId TaskGraph::AddTask(Task task) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  task.id = id;
  DAPPLE_CHECK_GE(task.duration, 0.0) << "task " << TaskName(task);
  DAPPLE_CHECK_GE(task.resource, 0) << "task " << TaskName(task);
  tasks_.push_back(task);
  successors_.emplace_back();
  return id;
}

void TaskGraph::AddEdge(TaskId predecessor, TaskId successor) {
  DAPPLE_CHECK(predecessor >= 0 && predecessor < num_tasks()) << "bad edge source";
  DAPPLE_CHECK(successor >= 0 && successor < num_tasks()) << "bad edge target";
  DAPPLE_CHECK_NE(predecessor, successor) << "self edge on task " << predecessor;
  const std::span<const TaskId> current = successors(predecessor);
  if (std::find(current.begin(), current.end(), successor) != current.end()) return;
  Successors& list = successors_[static_cast<std::size_t>(predecessor)];
  if (list.size < kInlineSuccessors) {
    list.inline_ids[static_cast<std::size_t>(list.size++)] = successor;
    return;
  }
  if (list.spill < 0) {
    list.spill = static_cast<std::int32_t>(spilled_.size());
    spilled_.emplace_back(list.inline_ids.begin(), list.inline_ids.end());
  }
  spilled_[static_cast<std::size_t>(list.spill)].push_back(successor);
  ++list.size;
}

const Task& TaskGraph::task(TaskId id) const {
  return tasks_.at(static_cast<std::size_t>(id));
}

Task& TaskGraph::mutable_task(TaskId id) { return tasks_.at(static_cast<std::size_t>(id)); }

std::span<const TaskId> TaskGraph::successors(TaskId id) const {
  const Successors& list = successors_.at(static_cast<std::size_t>(id));
  if (list.spill >= 0) return spilled_[static_cast<std::size_t>(list.spill)];
  return {list.inline_ids.data(), static_cast<std::size_t>(list.size)};
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
  in_degree_.assign(un, 0);
  is_compute_.resize(un);
  alloc_pool_.resize(un);
  free_pool_.resize(un);
  alloc_bytes_.resize(un);
  free_bytes_.resize(un);
  pool_events_.assign(static_cast<std::size_t>(num_pools_), 0);
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
    is_compute_[ut] = IsComputeKind(task.kind) ? 1 : 0;
    alloc_pool_[ut] = task.pool >= 0 && task.alloc_at_start > 0 ? task.pool : -1;
    free_pool_[ut] = task.pool >= 0 && task.free_at_end > 0 ? task.pool : -1;
    if (alloc_pool_[ut] >= 0) ++pool_events_[static_cast<std::size_t>(task.pool)];
    if (free_pool_[ut] >= 0) ++pool_events_[static_cast<std::size_t>(task.pool)];
    alloc_bytes_[ut] = task.alloc_at_start;
    free_bytes_[ut] = task.free_at_end;
    ready_key_[ut] = PackReadyKey(task.priority, t);
    succ_offsets_[ut] = offset;
    for (TaskId s : graph.successors(t)) {
      succ_[static_cast<std::size_t>(offset++)] = s;
      ++in_degree_[static_cast<std::size_t>(s)];
    }
  }
  succ_offsets_[un] = offset;
}

}  // namespace dapple::sim
