// Dependency graph of simulator tasks. Builders (runtime/graph_builder)
// create tasks and add data/control edges; the engine consumes the graph
// read-only. Edges are uniform: the successor may start only after the
// predecessor completes — exactly the semantics of TensorFlow control
// dependencies the paper's runtime relies on (Fig. 11).
//
// TaskGraph is the one graph form: builders fill it and the engine runs on
// it in place. It stores each edge once, in its source's successor list,
// and counts each task's in-degree as a new edge is stored.
//
// Successor storage: a list keeps its first kInlineSuccessors ids in place,
// next to its length; only a longer list moves, whole, to a heap vector.
// Built pipelines average ~1.9 successors per task and under 1% of tasks
// reach four, so edges into a Reserve'd graph allocate nothing per task.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/task.h"

namespace dapple::sim {

class TaskGraph {
 public:
  /// Successor ids stored in place per task before a list spills to the heap.
  static constexpr int kInlineSuccessors = 4;

  /// Reserves room for `num_tasks` tasks; ids and contents are unchanged.
  void Reserve(int num_tasks);

  /// Adds a task and returns its id. The id in the task struct is assigned
  /// by the graph.
  TaskId AddTask(Task task);

  /// Declares that `successor` starts only after `predecessor` completes.
  /// Repeating an existing edge is a no-op: builders do repeat edges (the
  /// last stage's 1F1B chain re-adds its FW -> BW data edge), and each edge
  /// is stored and counted once.
  void AddEdge(TaskId predecessor, TaskId successor);

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  const Task& task(TaskId id) const;
  Task& mutable_task(TaskId id);
  const std::vector<Task>& tasks() const { return tasks_; }

  /// The tasks gated on `id`, in insertion order, without duplicates. The
  /// span is invalidated by the next AddEdge from `id` or AddTask.
  std::span<const TaskId> successors(TaskId id) const;

  /// Number of distinct predecessors of `id`.
  int in_degree(TaskId id) const { return edges_[static_cast<std::size_t>(id)].in_degree; }

  /// Highest resource id referenced + 1.
  int num_resources() const;

  /// Highest pool id referenced + 1.
  int num_pools() const;

 private:
  /// One task's edges: its successor list (the first kInlineSuccessors
  /// ids in `inline_ids`; past that, the whole list in spilled_[spill])
  /// and its in-degree.
  struct Edges {
    std::array<TaskId, kInlineSuccessors> inline_ids{};
    std::int32_t size = 0;
    std::int32_t spill = -1;
    std::int32_t in_degree = 0;
  };

  std::vector<Task> tasks_;
  std::vector<Edges> edges_;
  std::vector<std::vector<TaskId>> spilled_;
};

/// A TaskGraph under the name the benchmark harness replays: Assign only
/// stores the pointer, and Engine::Simulate(const SoaGraph&) runs the graph
/// itself. The graph must outlive the view.
class SoaGraph {
 public:
  SoaGraph() = default;
  explicit SoaGraph(const TaskGraph& graph) { Assign(graph); }

  void Assign(const TaskGraph& graph) { graph_ = &graph; }
  const TaskGraph& graph() const { return *graph_; }

 private:
  const TaskGraph* graph_ = nullptr;
};

}  // namespace dapple::sim
