// Iteration-report observability layer: turns one simulated training
// iteration (TaskGraph + SimResult + BuiltPipeline) into the structured
// quantities the paper's evaluation is stated in — per-device and per-stage
// bubble ratios (formula 1's (S-1)/(M+S-1) idealization made measurable),
// the compute / transfer / AllReduce / apply time split,
// warmup/steady/drain phase boundaries (Fig. 4), per-link transfer volume
// and occupancy, and memory high-water marks with the peak-vs-M curve of
// §III's O(K)-not-O(M) claim.
//
// Exported as deterministic JSON (golden-testable) and aligned-column text;
// surfaced by `dapple report` and emitted by every bench binary as a
// machine-readable blob.
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"
#include "planner/stage_cache.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"

namespace dapple::obs {

/// Busy-time decomposition of the whole iteration, summed across resources.
struct TimeSplit {
  TimeSec compute = 0.0;    // FW + BW + recompute task time on devices
  TimeSec apply = 0.0;      // optimizer weight updates
  TimeSec transfer = 0.0;   // cross-stage activation/gradient movement
  TimeSec allreduce = 0.0;  // exposed gradient synchronization
};

/// Warmup / steady / drain boundaries of the pipeline iteration (Fig. 4):
/// warmup ends when the first backward starts anywhere, steady ends when
/// the last forward finishes, drain runs to the makespan.
struct PhaseSplit {
  TimeSec warmup_end = 0.0;
  TimeSec steady_end = 0.0;
  TimeSec warmup = 0.0;
  TimeSec steady = 0.0;
  TimeSec drain = 0.0;
};

struct DeviceReport {
  int device = -1;
  int stage = -1;  // computation stage hosted by this device
  TimeSec forward_busy = 0.0;
  TimeSec backward_busy = 0.0;
  TimeSec apply_busy = 0.0;
  TimeSec compute_busy = 0.0;  // all compute-kind task time
  double utilization = 0.0;    // compute_busy / makespan
  /// 1 - utilization: the device's idle-plus-waiting share of the
  /// iteration — the measured counterpart of paper formula 1's bubble term.
  double bubble_ratio = 0.0;
  TimeSec first_start = 0.0;
  TimeSec last_end = 0.0;
  int tasks_executed = 0;
  Bytes peak_memory = 0;
  Bytes baseline_memory = 0;
  bool oom = false;
};

struct StageReport {
  int stage = -1;
  std::vector<int> devices;
  int warmup_depth = 0;
  TimeSec forward_busy = 0.0;   // per-replica mean
  TimeSec backward_busy = 0.0;  // per-replica mean
  TimeSec allreduce = 0.0;      // the stage's exposed gradient-sync task
  TimeSec inbound_transfer = 0.0;   // forward activations arriving from stage-1
  TimeSec outbound_transfer = 0.0;  // forward activations leaving to stage+1
  double utilization = 0.0;         // replica mean of compute_busy / makespan
  double bubble_ratio = 0.0;        // 1 - utilization
  Bytes peak_memory = 0;            // worst replica device
};

/// One serial communication resource (a per-direction cross-stage channel
/// or a per-stage AllReduce lane).
struct LinkReport {
  int resource = -1;
  std::string name;  // "txf s0->s1", "txb s1->s0", "ar s1"
  int transfers = 0;
  TimeSec busy = 0.0;
  Bytes bytes = 0;         // total payload moved (task metadata)
  double occupancy = 0.0;  // busy / makespan
};

struct PoolReport {
  int pool = -1;
  Bytes peak = 0;
  Bytes baseline = 0;
  Bytes capacity = 0;  // 0 = unlimited
  TimeSec peak_time = 0.0;  // first time the peak was resident
  bool oom = false;
};

struct IterationReport {
  TimeSec makespan = 0.0;
  std::string schedule;     // "dapple" / "gpipe"
  std::string replication;  // "split" / "round-robin"
  bool recompute = false;
  /// Stages that ran with activation recomputation (global flag or the
  /// plan's per-stage flags; see BuiltPipeline::stage_recompute).
  int recompute_stages = 0;
  /// Per-device memory cap the pipeline was built under (0 = none; the
  /// pools then carry the cluster's device memory).
  Bytes memory_cap = 0;
  int micro_batch_size = 0;
  int num_micro_batches = 0;
  int num_stages = 0;
  int num_devices = 0;  // devices hosting a stage

  /// Mean bubble_ratio over participating devices.
  double bubble_fraction = 0.0;
  double throughput = 0.0;  // samples / simulated second
  /// Paper §VI-C: single-device sequential time of the processed samples
  /// over the makespan.
  double speedup = 0.0;
  /// Means of DeviceReport::utilization and ::peak_memory over the
  /// participating devices. Like speedup, never serialized, so JSON and
  /// text stay byte-identical.
  double utilization = 0.0;
  Bytes avg_peak_memory = 0;

  TimeSplit split;
  PhaseSplit phases;
  std::vector<DeviceReport> devices;
  std::vector<StageReport> stages;
  std::vector<LinkReport> links;
  std::vector<PoolReport> pools;

  Bytes max_peak_memory = 0;
  bool oom = false;

  /// Search stats of the planning run that produced this iteration's plan
  /// (thread count, subproblem decomposition, memo-cache traffic). Absent
  /// by default — attach via `attach_planner_stats` after a fresh planner
  /// run — so reports built from fixed plans (goldens) stay byte-identical.
  bool has_planner_stats = false;
  planner::PlannerSearchStats planner_stats;
  void attach_planner_stats(const planner::PlannerSearchStats& stats) {
    planner_stats = stats;
    has_planner_stats = true;
  }
};

/// Summarizes one executed iteration. Pure: reads the graph, records and
/// pools; feeds nothing back into the registry.
IterationReport BuildIterationReport(const runtime::BuiltPipeline& pipeline,
                                     const sim::SimResult& result);

/// Builds, simulates and summarizes one training iteration of `plan`.
IterationReport RunIteration(const model::ModelProfile& model, const topo::Cluster& cluster,
                             const planner::ParallelPlan& plan,
                             const runtime::BuildOptions& options);

/// Deterministic JSON document (see obs/json.h for formatting guarantees).
std::string ToJson(const IterationReport& report);

/// Writes the report as one JSON object into an existing writer, for
/// embedding in larger documents (bench blobs).
void WriteJson(JsonWriter& writer, const IterationReport& report);

/// Aligned-column text rendering for terminals.
std::string ToText(const IterationReport& report);

/// One point of the peak-memory-vs-M curve.
struct PeakVsMPoint {
  int num_micro_batches = 0;
  Bytes max_peak_memory = 0;
};

/// Re-builds the pipeline at several micro-batch counts (fixed micro-batch
/// size) and records the worst device peak at each — flat for DAPPLE
/// (O(K)), linear for GPipe (O(M)). A point whose stash discipline (per-stage
/// warmup depths and recompute flags) repeats an earlier point's holds the
/// same stash sets, so it reuses that point's simulation: DAPPLE past warmup
/// saturation collapses to one simulation, GPipe dedups nothing. Counters
/// report.peak_vs_m.{simulated,skipped} record the split. `sim_threads`
/// fans the builds and simulations out (1 = serial, 0 = hardware
/// concurrency); the curve is byte-identical at every count.
std::vector<PeakVsMPoint> PeakVsMCurve(const model::ModelProfile& model,
                                       const topo::Cluster& cluster,
                                       const planner::ParallelPlan& plan,
                                       runtime::BuildOptions options,
                                       const std::vector<int>& micro_batch_counts,
                                       int sim_threads = 1);

}  // namespace dapple::obs
