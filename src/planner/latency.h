// Analytic pipeline-latency estimator implementing the paper's optimization
// objective (§IV-A):
//
//   Tw = sum_{s<=Q} F_s                      (warmup)
//   Ts = (M-1) (F_Q + B_Q)                   (steady, pivot stage Q)
//   Te = max_s ( AR(P_s, g_s) + tail(s) )    (ending + gradient sync)
//   L  = Tw + Ts + Te
//
// with the pivot chosen by the formula-3 heuristic and cross-stage
// communication modeled as its own pipeline stage (F_s = B_s = transfer
// time, AR = 0), exactly as the paper prescribes.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "comm/cost_model.h"
#include "model/profile.h"
#include "planner/plan.h"
#include "runtime/schedule.h"
#include "topo/cluster.h"

namespace dapple::planner {

class StageCostCache;

/// One entry of the expanded stage list (computation and network stages
/// interleaved: comp0, comm01, comp1, ...).
struct StageCost {
  bool is_comm = false;
  /// Index into ParallelPlan::stages for computation stages, -1 for comm.
  int comp_index = -1;
  TimeSec forward = 0.0;    // F_s per micro-batch
  TimeSec backward = 0.0;   // B_s per micro-batch
  TimeSec allreduce = 0.0;  // AR(P_s, g_s); already overlap-reduced if enabled
  TimeSec allreduce_raw = 0.0;  // AR before overlap
};

struct PlanEstimate {
  bool feasible = true;
  std::string infeasible_reason;
  /// True when infeasibility came from the memory check (peak exceeded the
  /// per-device capacity); lets the planner count cap rejections apart
  /// from structural infeasibility.
  bool memory_limited = false;

  TimeSec latency = std::numeric_limits<TimeSec>::infinity();
  TimeSec warmup = 0.0;
  TimeSec steady = 0.0;
  TimeSec ending = 0.0;
  int pivot = -1;  // index into `stages`

  /// Average comm-stage (F+B) over average computation-stage (F+B); the
  /// paper's ACR column. 0 when the pipeline has no network stage.
  double acr = 0.0;

  int micro_batch_size = 0;
  int num_micro_batches = 0;

  /// Estimated worst per-device peak memory under the schedule family the
  /// estimator was configured with (LatencyOptions::schedule_kind; DAPPLE
  /// by default).
  Bytes max_peak_memory = 0;
  /// Per-device capacity the memory check compared against: the memory cap
  /// when one was set, the cluster's device memory otherwise.
  Bytes memory_capacity = 0;

  std::vector<StageCost> stages;

  /// Paper §VI-C speedup metric: single-device sequential time over L.
  double speedup = 0.0;
};

/// Analytic bubble/memory frontier point for one schedule family on one
/// plan — the planner-side counterpart of a simulated run, used by
/// bench_schedule_frontier to sweep families without building task graphs.
struct ScheduleFamilyEstimate {
  runtime::ScheduleKind kind = runtime::ScheduleKind::kDapple;
  TimeSec latency = 0.0;
  /// 1 - busy / (occupied device groups * latency); compute-only.
  double bubble_ratio = 0.0;
  /// Worst per-device peak memory under the family's stash discipline.
  Bytes max_peak_memory = 0;
  int micro_batch_size = 0;
  int num_micro_batches = 0;
};

/// Fraction of the hideable gradient traffic that real frameworks actually
/// hide when overlap_allreduce is on (bucketing granularity, kernel
/// contention, aggregation overhead keep overlap imperfect — Poseidon-style
/// systems report 40-70%). 1.0 would be ideal overlap.
inline constexpr double kOverlapEfficiency = 0.5;

struct LatencyOptions {
  /// Overlap each stage's gradient AllReduce with its own backward compute
  /// (reverse-layer bucketed model). The paper's runtime overlaps; the
  /// "DP No Overlap" baseline disables this.
  bool overlap_allreduce = true;
  /// Enforce the per-device memory capacity (plans that do not fit are
  /// marked infeasible, e.g. DP for AmoebaNet-36).
  bool check_memory = true;
  /// Per-device memory cap in bytes for the feasibility check; 0 means use
  /// the cluster's device memory. Same boundary convention as
  /// sim::MemoryPool::oom(): peak == cap is feasible, peak > cap is not.
  Bytes memory_cap = 0;
  /// Schedule family whose stash discipline the memory check models
  /// (peak terms per family mirror EstimateFamily). Latency terms stay the
  /// paper's DAPPLE objective regardless.
  runtime::ScheduleKind schedule_kind = runtime::ScheduleKind::kDapple;
};

/// Micro-batching rule shared by the estimator and the runtime. The ideal
/// micro-batch gives every replica of the widest stage the model's profile
/// micro-batch (keeping per-replica slices efficient, §V-B2); the number of
/// micro-batches is then the largest divisor of the global batch not
/// exceeding gbs / ideal, so M * mbs always equals the global batch and
/// plans are compared on identical work.
struct MicroBatching {
  int micro_batch_size = 0;
  int num_micro_batches = 0;
};
MicroBatching ChooseMicroBatching(long global_batch_size, int profile_micro_batch,
                                  int max_replication, int num_stages = 1);

/// Bound to one (model, cluster); evaluates any plan at any global batch.
class LatencyEstimator {
 public:
  LatencyEstimator(const model::ModelProfile& model, const topo::Cluster& cluster,
                   LatencyOptions options = {});

  const model::ModelProfile& model() const { return *model_; }
  const topo::Cluster& cluster() const { return *cluster_; }
  const LatencyOptions& options() const { return options_; }

  /// Attaches a stage-cost memo cache (see planner/stage_cache.h). The
  /// cache must outlive the estimator's use of it and is consulted from
  /// whatever threads call Estimate concurrently; nullptr detaches. Cached
  /// values are bit-identical to recomputation, so attaching a cache never
  /// changes an estimate.
  void set_stage_cache(StageCostCache* cache) { cache_ = cache; }

  /// Full estimate for a plan at a global batch size. Counts one call in
  /// planner.estimator_calls.
  PlanEstimate Estimate(const ParallelPlan& plan, long global_batch_size) const;

  /// The same estimate, taking the first `leading.size()` entries of the
  /// expanded stage list (comp0, comm01, comp1, ...) as given instead of
  /// gathering them. They must be the entries Estimate would gather for
  /// `plan`: the planner passes the prefix entries of one split point's
  /// estimate to every other split of the same subproblem, where stage
  /// count, replication and hence micro-batching are fixed. Validation and
  /// scoring run in full. Does not count in planner.estimator_calls; a
  /// caller scoring a batch bumps the counter once for all of it.
  PlanEstimate Estimate(const ParallelPlan& plan, long global_batch_size,
                        std::span<const StageCost> leading) const;

  /// Closed-form device-compute frontier model per schedule family
  /// (transfers and gradient sync excluded — this ranks families on bubble
  /// shape and stash discipline, not absolute latency):
  ///   GPipe:  L = sumF + (M-1) maxF + sumB + (M-1) maxB, M stashes/stage.
  ///   DAPPLE: L = sumF + (M-1)(F_q + B_q) + sumB with the bottleneck
  ///           pivot q = argmax(F+B), K_i = min(S-i, M) stashes (PA).
  ///   2BP:    as DAPPLE, but the drain cascade runs on backward-input
  ///           halves and stage 0 finishes with its own weight half;
  ///           one transient extra stash per stage.
  ///   V-Min / V-Half: chunks fold onto ceil(S/2) groups; the steady round
  ///           of group g covers both hosted chunks, and each chunk stashes
  ///           at most its VStashCap.
  ScheduleFamilyEstimate EstimateFamily(runtime::ScheduleKind kind,
                                        const ParallelPlan& plan,
                                        long global_batch_size) const;

  /// Micro-batch size rule: each replica of the widest stage processes the
  /// model's profile micro-batch, i.e. mbs = profile_mb * max_replication
  /// clamped to the global batch.
  int ChooseMicroBatchSize(const ParallelPlan& plan, long global_batch_size) const;

  /// Time to run the whole global batch on one device sequentially
  /// (denominator of the paper's speedup metric). Ignores memory limits.
  TimeSec SingleDeviceTime(long global_batch_size) const;

  /// Gradient-sync time for `devices` left exposed after overlapping with
  /// the stage's own backward pass (reverse-layer order: grads of the last
  /// layers are ready first). Returns the raw AllReduce when overlap is
  /// disabled.
  TimeSec ExposedAllReduce(int layer_begin, int layer_end, const topo::DeviceSet& devices,
                           double samples) const;

  /// Formula 3: picks the pivot stage for an expanded stage list.
  static int ChoosePivot(const std::vector<StageCost>& stages, int num_micro_batches);

  /// Worst per-device peak memory of `plan` under `kind`'s stash
  /// discipline at the given micro-batching — the single peak model shared
  /// by Estimate's feasibility check and EstimateFamily's frontier, so cap
  /// semantics agree byte-for-byte. Honors per-stage recompute flags.
  Bytes FamilyPeakMemory(runtime::ScheduleKind kind, const ParallelPlan& plan,
                         const MicroBatching& mb) const;

  /// Capacity the memory check compares against: options().memory_cap when
  /// set, the cluster's device memory otherwise.
  Bytes EffectiveCapacity() const;

 private:
  /// Per-device peak memory of one stage holding `warmup_depth` stashes:
  /// baseline + K x (activation | checkpoint) + recompute transient.
  Bytes StagePeakMemory(const StagePlan& stage, double samples, int warmup_depth) const;

  const model::ModelProfile* model_;
  const topo::Cluster* cluster_;
  comm::CostModel cost_;
  LatencyOptions options_;
  StageCostCache* cache_ = nullptr;
};

}  // namespace dapple::planner
