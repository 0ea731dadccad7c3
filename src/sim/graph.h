// Dependency graph of simulator tasks. Builders (runtime/graph_builder)
// create tasks and add data/control edges; the engine consumes the graph
// read-only. Edges are uniform: the successor may start only after the
// predecessor completes — exactly the semantics of TensorFlow control
// dependencies the paper's runtime relies on (Fig. 11).
//
// TaskGraph is the builder-facing array-of-structs form. The engine runs on
// SoaGraph, a flattened structure-of-arrays copy in the spirit of poplibs'
// flat cycle-estimator tables:
//
//   - duration / resource / memory-effect arrays indexed by TaskId, so the
//     event loop touches only the bytes it needs (a Task is ~100 bytes with
//     a cold std::string name) and neighboring ids share cache lines;
//   - CSR successor spans (offsets + one flat id array), no per-task vector
//     indirection;
//   - ready-queue keys packed into one uint64 ((priority, id) lexicographic
//     via a sign-bias), so heap sifts compare a single integer.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/task.h"

namespace dapple::sim {

class TaskGraph {
 public:
  /// Adds a task and returns its id. The id in the task struct is assigned
  /// by the graph.
  TaskId AddTask(Task task);

  /// Declares that `successor` starts only after `predecessor` completes.
  /// Duplicate edges are tolerated (counted once per insertion; the engine
  /// tracks in-degree, so duplicates are semantically harmless but wasteful —
  /// builders avoid them).
  void AddEdge(TaskId predecessor, TaskId successor);

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  const Task& task(TaskId id) const;
  Task& mutable_task(TaskId id);
  const std::vector<Task>& tasks() const { return tasks_; }

  const std::vector<TaskId>& successors(TaskId id) const;
  const std::vector<TaskId>& predecessors(TaskId id) const;
  int in_degree(TaskId id) const;

  /// Highest resource id referenced + 1.
  int num_resources() const;

  /// Highest pool id referenced + 1.
  int num_pools() const;

 private:
  std::vector<Task> tasks_;
  std::vector<std::vector<TaskId>> successors_;
  std::vector<std::vector<TaskId>> predecessors_;
  std::vector<int> in_degree_;
};

/// Flattened, read-only execution view of a TaskGraph. Construction is one
/// linear pass; the source graph must outlive the SoaGraph (diagnostics and
/// trace rendering still read task names from it).
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
  const std::vector<std::int32_t>& in_degree() const { return in_degree_; }
  const std::vector<std::uint8_t>& is_compute() const { return is_compute_; }
  /// Pool affected at start (alloc) / end (free); -1 when the task has no
  /// such effect, folding the engine's `pool >= 0 && bytes > 0` test into
  /// one sign check.
  const std::vector<std::int32_t>& alloc_pool() const { return alloc_pool_; }
  const std::vector<std::int32_t>& free_pool() const { return free_pool_; }
  const std::vector<Bytes>& alloc_bytes() const { return alloc_bytes_; }
  const std::vector<Bytes>& free_bytes() const { return free_bytes_; }

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
  std::vector<std::uint64_t> ready_key_;
  std::vector<std::int32_t> succ_offsets_;
  std::vector<std::int32_t> succ_;
};

}  // namespace dapple::sim
