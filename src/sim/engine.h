// Deterministic discrete-event engine. Executes a TaskGraph over a set of
// serial resources (device compute engines, network channels):
//
//  - a task becomes ready when all its predecessors have completed;
//  - each resource runs at most one task at a time;
//  - among ready tasks queued on one resource, the engine picks the lowest
//    (priority, id) pair;
//  - simultaneous completions drain in (time, priority, id) order — the
//    completing task's priority, then its id as the final key. The key is
//    part of the engine's contract (pinned by sim_engine_test and the
//    determinism sweep), not an artifact of container iteration order:
//    which completion is processed first decides which successors reach
//    their resource's ready queue before the next dispatch.
//  - task memory effects are applied to per-device pools at start/end.
//
// Together the two explicit keys make every simulation exactly
// reproducible — byte-identical traces, reports and memory high-water
// marks on every host and at every ThreadPool thread count.
//
// Two event loops implement this contract: Engine, the production loop,
// which runs on the TaskGraph in place, and RunReferenceEngine, a plain
// ordered-container loop kept only as the differential oracle.
//
// This is the substitute for the paper's GPU testbed: schedule shape,
// bubbles, overlap and peak memory all emerge from the same dependency
// structure the real runtime has.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/graph.h"
#include "sim/memory.h"

namespace dapple::sim {

/// Execution interval of one task.
struct TaskRecord {
  TaskId id = kInvalidTask;
  TimeSec start = 0.0;
  TimeSec end = 0.0;
  bool executed = false;
  /// True once the task occupied its resource; a started-but-not-executed
  /// task was pinned by a zero-speed window (fail-stop fault) forever.
  bool started = false;
};

/// One breakpoint of a piecewise-constant resource speed function: the
/// resource runs at `speed` from `start` until the next segment (or
/// forever). Speed 0 models a fail-stop crash: work in flight makes no
/// further progress.
struct SpeedSegment {
  TimeSec start = 0.0;
  double speed = 1.0;
};

/// Time-varying speed of one resource. Before the first segment the
/// resource runs at 1.0 — task durations are "work" at unit speed, so a
/// fault-free profile reproduces the fixed-duration engine exactly.
struct ResourceSpeedProfile {
  ResourceId resource = 0;
  std::vector<SpeedSegment> segments;  // sorted by start, strictly increasing
};

/// Wall-clock completion time of `work` units started at `start` under the
/// profile: integrates speed over time segment by segment, so a task
/// spanning a fault-window boundary is re-costed piecewise. Returns
/// +infinity when a trailing zero-speed segment pins the remaining work
/// forever.
TimeSec FinishTime(const ResourceSpeedProfile& profile, TimeSec start, TimeSec work);

/// Aggregate occupancy of one resource.
struct ResourceUsage {
  TimeSec busy = 0.0;           // sum of task durations
  TimeSec compute_busy = 0.0;   // busy time of compute-kind tasks only
  TimeSec first_start = 0.0;
  TimeSec last_end = 0.0;
  int tasks_executed = 0;
};

struct SimResult {
  TimeSec makespan = 0.0;
  std::vector<TaskRecord> records;      // indexed by TaskId
  std::vector<ResourceUsage> resources; // indexed by ResourceId
  std::vector<MemoryPool> pools;        // indexed by PoolId

  /// False when the run stalled: some tasks could never finish (a
  /// zero-speed resource pinned them, or their predecessors were pinned).
  /// Only possible with EngineOptions::allow_incomplete.
  bool completed = true;
  /// Number of tasks that never completed (0 when completed).
  int tasks_unfinished = 0;

  /// Fraction of the makespan a resource spent executing tasks.
  double Utilization(ResourceId r) const;

  /// Fraction of the makespan spent on compute kinds (FW/BW/RC/Apply);
  /// 1 - ComputeUtilization is the bubble-plus-comm fraction.
  double ComputeUtilization(ResourceId r) const;

  /// Largest peak across pools.
  Bytes MaxPeakMemory() const;

  /// True if any pool exceeded its capacity.
  bool AnyOom() const;
};

struct EngineOptions {
  /// Pool capacities (0 = unlimited), indexed by PoolId. Missing entries
  /// default to unlimited.
  std::vector<Bytes> pool_capacities;
  /// Always-resident bytes per pool (weights + optimizer state).
  std::vector<Bytes> pool_baselines;
  /// Piecewise-constant speed multipliers per resource (fault windows,
  /// degraded links). Resources without a profile run at 1.0 and keep the
  /// fixed-duration fast path bit-for-bit.
  std::vector<ResourceSpeedProfile> resource_speeds;
  /// Return a partial SimResult (completed = false) instead of throwing
  /// when some tasks can never finish — the fail-stop fault case, where a
  /// crashed device pins its tasks while independent work drains normally.
  bool allow_incomplete = false;
};

/// The discrete-event engine. It reads each task's fields and successor
/// list from the TaskGraph in place, with a per-instance arena: the ready
/// queues (one binary min-heap per resource of (priority, id) packed into
/// one uint64), the completion heap (keyed (time, priority, id)) and every
/// bookkeeping vector are owned by the Engine and reused across Simulate()
/// calls, so a run performs no per-event heap allocation after the first
/// simulation of a given shape warms the arena. (The returned SimResult
/// still allocates its records/pools — per run, not per event.)
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `graph` to completion. Throws dapple::Error on dependency cycles
  /// (some tasks can never become ready).
  SimResult Simulate(const TaskGraph& graph, const EngineOptions& options = {});

  /// Runs the graph behind `view`: the same as Simulate(view.graph()).
  SimResult Simulate(const SoaGraph& view, const EngineOptions& options = {});

  /// Convenience entry point: simulates on a thread-local Engine, so every
  /// thread — each ThreadPool worker in particular — keeps its own warmed
  /// arena and concurrent runs never share mutable state.
  static SimResult Run(const TaskGraph& graph, const EngineOptions& options = {});

 private:
  /// Completion-heap entry; drains in (time, key) ascending order, which is
  /// exactly (time, priority, id).
  struct Completion {
    TimeSec time = 0.0;
    std::uint64_t key = 0;
  };

  std::vector<std::int32_t> pending_;
  std::vector<const ResourceSpeedProfile*> profile_of_;
  std::vector<std::vector<std::uint64_t>> ready_;  // packed min-heap per resource
  std::vector<std::uint8_t> busy_;                 // resource occupied flag
  std::vector<Completion> completions_;
  std::vector<std::int32_t> wake_;
};

/// The original engine (ordered-set ready queues, std::priority_queue
/// completion events), kept as the differential oracle: the determinism
/// sweep and bench_sim_engine run it against Engine and require
/// byte-identical results. Same (time, priority, id) completion contract;
/// allocation-heavy, so use Engine everywhere else.
SimResult RunReferenceEngine(const TaskGraph& graph, const EngineOptions& options = {});

namespace internal {

/// Scaffolding shared by Engine and the reference engine so their results
/// stay byte-identical by construction, not by parallel maintenance.

/// Prepares the SimResult shell from one pass over the tasks: a record per
/// task, a usage slot per resource (at least one), and a pool per graph
/// pool, widened by any capacity/baseline entries, with those applied.
/// Each pool's timeline is reserved for the allocs and frees its tasks make.
SimResult MakeResultShell(const TaskGraph& graph, const EngineOptions& options);

/// Validates speed profiles (at most one per resource, no NaN starts) and
/// maps them onto resources (nullptr = fixed unit speed, the exact legacy
/// arithmetic).
void IndexProfiles(const EngineOptions& options, int num_resources,
                   std::vector<const ResourceSpeedProfile*>& profile_of);

/// Diagnostic for a graph that can never complete (dependency cycle).
[[noreturn]] void ThrowDeadlock(const TaskGraph& graph, const SimResult& result,
                                int executed);

}  // namespace internal

}  // namespace dapple::sim
