#include "sim/graph.h"

#include <algorithm>

#include "common/error.h"

namespace dapple::sim {

void TaskGraph::Reserve(int num_tasks) {
  DAPPLE_CHECK_GE(num_tasks, 0);
  tasks_.reserve(static_cast<std::size_t>(num_tasks));
  edges_.reserve(static_cast<std::size_t>(num_tasks));
}

TaskId TaskGraph::AddTask(Task task) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  task.id = id;
  DAPPLE_CHECK_GE(task.duration, 0.0) << "task " << TaskName(task);
  DAPPLE_CHECK_GE(task.resource, 0) << "task " << TaskName(task);
  tasks_.push_back(task);
  edges_.emplace_back();
  return id;
}

void TaskGraph::AddEdge(TaskId predecessor, TaskId successor) {
  DAPPLE_CHECK(predecessor >= 0 && predecessor < num_tasks()) << "bad edge source";
  DAPPLE_CHECK(successor >= 0 && successor < num_tasks()) << "bad edge target";
  DAPPLE_CHECK_NE(predecessor, successor) << "self edge on task " << predecessor;
  const std::span<const TaskId> current = successors(predecessor);
  if (std::find(current.begin(), current.end(), successor) != current.end()) return;
  ++edges_[static_cast<std::size_t>(successor)].in_degree;
  Edges& list = edges_[static_cast<std::size_t>(predecessor)];
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
  const Edges& list = edges_.at(static_cast<std::size_t>(id));
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

}  // namespace dapple::sim
