// Dependency graph of simulator tasks. Builders (runtime/graph_builder)
// create tasks and add data/control edges; the engine consumes the graph
// read-only. Edges are uniform: the successor may start only after the
// predecessor completes — exactly the semantics of TensorFlow control
// dependencies the paper's runtime relies on (Fig. 11).
//
// TaskGraph is the builder-facing array-of-structs form. It stores each
// edge once, in its source's successor list; consumers that need in-degree
// or fan-in derive it from those lists (SoaGraph::Assign, the reference
// engine, check::ScheduleValidator).
//
// Successor storage: a list keeps its first kInlineSuccessors ids in place,
// next to its length; only a longer list moves, whole, to a heap vector.
// Built pipelines average ~1.9 successors per task and under 1% of tasks
// reach four, so edges into a Reserve'd graph allocate nothing per task.
//
// The engine runs on SoaGraph, a flattened structure-of-arrays copy in the
// spirit of poplibs' flat cycle-estimator tables:
//
//   - duration / resource / memory-effect arrays indexed by TaskId, so the
//     event loop touches only the bytes it needs (a Task is 72 bytes, most
//     of them reporting metadata) and neighboring ids share cache lines;
//   - CSR successor spans (offsets + one flat id array) plus the in-degree
//     counted from them, no per-task vector indirection;
//   - ready-queue keys packed into one uint64 ((priority, id) lexicographic
//     via a sign-bias), so heap sifts compare a single integer.
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
  /// is stored once.
  void AddEdge(TaskId predecessor, TaskId successor);

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  const Task& task(TaskId id) const;
  Task& mutable_task(TaskId id);
  const std::vector<Task>& tasks() const { return tasks_; }

  /// The tasks gated on `id`, in insertion order, without duplicates. The
  /// span is invalidated by the next AddEdge from `id` or AddTask.
  std::span<const TaskId> successors(TaskId id) const;

  /// Highest resource id referenced + 1.
  int num_resources() const;

  /// Highest pool id referenced + 1.
  int num_pools() const;

 private:
  /// One task's successor list: the first kInlineSuccessors ids in
  /// `inline_ids`; past that, the whole list in spilled_[spill].
  struct Successors {
    std::array<TaskId, kInlineSuccessors> inline_ids{};
    std::int32_t size = 0;
    std::int32_t spill = -1;
  };

  std::vector<Task> tasks_;
  std::vector<Successors> successors_;
  std::vector<std::vector<TaskId>> spilled_;
};

/// Flattened, read-only execution view of a TaskGraph. Construction is one
/// linear pass; the source graph must outlive the SoaGraph (diagnostics
/// render task names from it).
class SoaGraph {
 public:
  SoaGraph() = default;
  explicit SoaGraph(const TaskGraph& graph) { Assign(graph); }

  /// (Re)flattens `graph` into this layout, reusing array capacity, so
  /// repeated flattening of same-shaped graphs allocates nothing after
  /// warmup.
  void Assign(const TaskGraph& graph);

  int num_tasks() const { return num_tasks_; }
  int num_resources() const { return num_resources_; }
  int num_pools() const { return num_pools_; }
  const TaskGraph& source() const { return *source_; }

  // Per-task field arrays, indexed by TaskId.
  const std::vector<TimeSec>& duration() const { return duration_; }
  const std::vector<std::int32_t>& resource() const { return resource_; }
  /// Number of predecessors per task, counted from the successor lists.
  const std::vector<std::int32_t>& in_degree() const { return in_degree_; }
  const std::vector<std::uint8_t>& is_compute() const { return is_compute_; }
  /// Pool affected at start (alloc) / end (free); -1 when the task has no
  /// such effect, folding the engine's `pool >= 0 && bytes > 0` test into
  /// one sign check.
  const std::vector<std::int32_t>& alloc_pool() const { return alloc_pool_; }
  const std::vector<std::int32_t>& free_pool() const { return free_pool_; }
  const std::vector<Bytes>& alloc_bytes() const { return alloc_bytes_; }
  const std::vector<Bytes>& free_bytes() const { return free_bytes_; }
  /// Alloc plus free effects per pool, num_pools() entries: an upper bound
  /// on the samples a run adds to that pool's timeline.
  const std::vector<std::int32_t>& pool_events() const { return pool_events_; }

  /// Ready-heap key of task `id`: (priority, id) lexicographic as one
  /// unsigned 64-bit integer (priority sign-biased into the high half, the
  /// id in the low half — see KeyTask).
  const std::vector<std::uint64_t>& ready_key() const { return ready_key_; }
  static TaskId KeyTask(std::uint64_t key) {
    return static_cast<TaskId>(static_cast<std::uint32_t>(key));
  }

  /// CSR successor spans: successors of task t are
  /// succ()[succ_offsets()[t] .. succ_offsets()[t+1]).
  const std::vector<std::int32_t>& succ_offsets() const { return succ_offsets_; }
  const std::vector<std::int32_t>& succ() const { return succ_; }

 private:
  const TaskGraph* source_ = nullptr;
  int num_tasks_ = 0;
  int num_resources_ = 1;
  int num_pools_ = 0;

  std::vector<TimeSec> duration_;
  std::vector<std::int32_t> resource_;
  std::vector<std::int32_t> in_degree_;
  std::vector<std::uint8_t> is_compute_;
  std::vector<std::int32_t> alloc_pool_;
  std::vector<std::int32_t> free_pool_;
  std::vector<Bytes> alloc_bytes_;
  std::vector<Bytes> free_bytes_;
  std::vector<std::int32_t> pool_events_;
  std::vector<std::uint64_t> ready_key_;
  std::vector<std::int32_t> succ_offsets_;
  std::vector<std::int32_t> succ_;
};

}  // namespace dapple::sim
