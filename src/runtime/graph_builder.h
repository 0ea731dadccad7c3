// Transforms a (model, plan, schedule) triple into a simulator task graph —
// the analogue of the paper's §V runtime, which rewrites the TF graph into
// per-stage forward/backward subgraphs connected by split/concat transfers
// and ordered by control dependencies (Fig. 11).
//
// Task graph shape, per computation stage i with replica set g_i:
//   FW(i, m, d) / BW(i, m, d) on each replica device d, per micro-batch m;
//   TX_f(i, m): all FW(i,m,*) -> transfer -> all FW(i+1,m,*);
//   TX_b(i, m): all BW(i+1,m,*) -> transfer -> all BW(i,m,*);
//   AR(i): all BW(i,*,*) -> AllReduce over g_i (when |g_i| > 1);
//   APPLY(i, d): weight update per device, after AR(i) (or local BWs).
// Control edges chain each device's FW/BW order per runtime/schedule.h.
#pragma once

#include <cstdint>
#include <vector>

#include "model/profile.h"
#include "planner/dp_planner.h"
#include "planner/plan.h"
#include "runtime/schedule.h"
#include "sim/engine.h"
#include "sim/graph.h"
#include "topo/cluster.h"

namespace dapple::runtime {

/// How a replicated stage consumes micro-batches (paper Fig. 8).
enum class ReplicationMode {
  /// Split every micro-batch into |g| slices, one per replica (DAPPLE).
  kSplitMicroBatch,
  /// Round-robin whole micro-batches over replicas (the alternative with
  /// the tail effect).
  kRoundRobin,
};

const char* ToString(ReplicationMode mode);

struct BuildOptions {
  long global_batch_size = 0;
  /// 0 = auto: profile micro-batch times the widest stage's replication.
  int micro_batch_size = 0;
  ScheduleOptions schedule;
  ReplicationMode replication = ReplicationMode::kSplitMicroBatch;
  /// Give device pools the per-device memory capacity so OOM is observable.
  bool enforce_memory_capacity = true;
  /// Per-device memory capacity in bytes; 0 = the cluster's device memory.
  /// The build's LatencyEstimator takes it as LatencyOptions::memory_cap;
  /// its EffectiveCapacity sets both the in-flight throttle's reserve math
  /// and the simulator pool capacities, so the MemoryPool OOM boundary
  /// (peak > cap) is the planner's cap check.
  Bytes memory_cap = 0;
  /// Overlap gradient AllReduce with the final backward pass (bucketed,
  /// reverse-layer order): LatencyOptions::overlap_allreduce of the build's
  /// estimator, whose ExposedAllReduce prices every AllReduce task.
  bool overlap_allreduce = true;
};

/// The planner-to-simulator hand-off: the build that runs a plan under the
/// settings it was planned with — global batch, schedule family
/// (latency.schedule_kind), memory cap (latency.memory_cap) and AllReduce
/// overlap. Recompute is not a build setting: it rides the plan's
/// StagePlan::recompute flags, which the estimator prices and the builder
/// runs.
BuildOptions BuildOptionsFor(const planner::PlannerOptions& options);

/// Resource-id layout shared by every built pipeline: device compute
/// engines first, then one duplex channel pair per stage boundary, then one
/// AllReduce lane per stage. Consumers (observability, validation, fault
/// injection) derive channel ids from this instead of re-hardcoding the
/// arithmetic.
struct ResourceLayout {
  int num_devices = 0;
  int num_stages = 0;

  int num_boundaries() const { return num_stages > 0 ? num_stages - 1 : 0; }
  int num_resources() const { return num_devices + 2 * num_boundaries() + num_stages; }

  bool IsDevice(sim::ResourceId r) const { return r >= 0 && r < num_devices; }
  sim::ResourceId ForwardChannel(int boundary) const { return num_devices + 2 * boundary; }
  sim::ResourceId BackwardChannel(int boundary) const {
    return num_devices + 2 * boundary + 1;
  }
  sim::ResourceId AllReduceLane(int stage) const {
    return num_devices + 2 * num_boundaries() + stage;
  }
};

struct BuiltPipeline {
  sim::TaskGraph graph;
  sim::EngineOptions engine_options;
  int micro_batch_size = 0;
  int num_micro_batches = 0;
  int num_devices = 0;
  /// Per computation stage: the warmup depth the schedule actually used.
  std::vector<int> warmup_depths;
  /// Per computation stage: 1 when the stage ran with activation
  /// recomputation (its StagePlan::recompute flag), 0 otherwise. Feeds
  /// report/JSON output.
  std::vector<std::uint8_t> stage_recompute;
  /// The options the builder ran with (micro-batching resolved above); lets
  /// consumers such as check::ScheduleValidator re-derive expectations.
  BuildOptions options;
  /// Number of computation stages (drives the resource layout).
  int num_stages = 0;
  /// Time to run the iteration's micro_batch_size x num_micro_batches
  /// samples sequentially on one device: the numerator of the paper's
  /// §VI-C speedup.
  TimeSec single_device_time = 0.0;

  ResourceLayout layout() const { return ResourceLayout{num_devices, num_stages}; }
};

class GraphBuilder {
 public:
  GraphBuilder(const model::ModelProfile& model, const topo::Cluster& cluster,
               const planner::ParallelPlan& plan, BuildOptions options);

  BuiltPipeline Build() const;

 private:
  const model::ModelProfile* model_;
  const topo::Cluster* cluster_;
  const planner::ParallelPlan* plan_;
  BuildOptions options_;
};

}  // namespace dapple::runtime
