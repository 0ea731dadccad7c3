// Task model for the discrete-event simulator. A task is a unit of work
// bound to one execution resource (a device's compute engine or a network
// channel), with a fixed duration, dependency edges, and memory effects on a
// device memory pool.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "common/units.h"

namespace dapple::sim {

using TaskId = int;
using ResourceId = int;
using PoolId = int;

inline constexpr TaskId kInvalidTask = -1;

/// Semantic category of a task; used for reporting (bubble accounting
/// considers compute kinds only) and trace rendering.
enum class TaskKind {
  kForward,
  kBackward,        // full backward, or the backward-input half under 2BP
  kBackwardWeight,  // deferred backward-weight half (2BP split schedules)
  kRecompute,
  kTransfer,   // cross-stage activation / gradient movement
  kAllReduce,  // gradient synchronization across replicas
  kApply,      // optimizer weight update
  kGeneric,
};

const char* ToString(TaskKind kind);

/// True for kinds that occupy a device's compute engine (vs. the network).
bool IsComputeKind(TaskKind kind);

/// What a task's kind leaves open: which half of a backward, which way a
/// transfer moves. Only TaskName reads it.
enum class TaskVariant : std::uint8_t {
  kDefault,        // a full backward, a forward transfer, any other kind
  kBackwardInput,  // kBackward: 2BP's backward-input half ("BI")
  kGradient,       // kTransfer: the gradient moving back a stage ("TXb")
};

struct Task {
  TaskId id = kInvalidTask;
  TaskKind kind = TaskKind::kGeneric;
  TaskVariant variant = TaskVariant::kDefault;
  ResourceId resource = 0;
  TimeSec duration = 0.0;

  /// Memory pool affected by this task; -1 for none.
  PoolId pool = -1;
  /// Bytes allocated in `pool` at task start (activation stash for FW).
  Bytes alloc_at_start = 0;
  /// Bytes released from `pool` at task end (BW freeing its FW's stash).
  Bytes free_at_end = 0;

  /// Tie-break among simultaneously-ready tasks on one resource; lower runs
  /// first. Schedules (GPipe vs DAPPLE) are expressed with control edges
  /// plus priorities.
  int priority = 0;

  // Reporting metadata (not interpreted by the engine).
  int stage = -1;
  int microbatch = -1;
  int device = -1;
  /// Payload moved by transfer/AllReduce tasks (link-volume accounting).
  Bytes bytes = 0;
};

// A task carries no owned storage: building a graph formats no text, and
// names are rendered on demand by TaskName.
static_assert(std::is_trivially_copyable_v<Task>);
static_assert(sizeof(Task) <= 72);

/// The task's display name, rendered from its fields: "FW s1 m3 G5",
/// "BW"/"BI"/"BWW" likewise, "RC s1 m3 G5", "TXf 1->2 m3", "TXb 2->1 m3"
/// (a transfer's stage is its upstream side), "AR s1", "APPLY s1 G5", and
/// "task 7" for a kGeneric task.
std::string TaskName(const Task& task);

}  // namespace dapple::sim
