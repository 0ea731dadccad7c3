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

/// The part of a PlanEstimate the planner keeps for every candidate it
/// scores: feasibility, the objective and the peak the memory check read.
/// Estimate on the same plan and entries yields the same four values.
struct CandidateScore {
  bool feasible = true;
  bool memory_limited = false;
  TimeSec latency = std::numeric_limits<TimeSec>::infinity();
  Bytes peak = 0;
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

  /// Full estimate for a plan at a global batch size. Counts one call in
  /// planner.estimator_calls.
  PlanEstimate Estimate(const ParallelPlan& plan, long global_batch_size) const;

  /// The same estimate from all 2S-1 entries of the plan's expanded stage
  /// list (comp0, comm01, comp1, ...), given instead of priced; empty
  /// means price them here. They must be the entries Estimate would price
  /// for `plan` (CompPricer/CommPricer at the plan's micro-batch size,
  /// comp_index set): the planner reads them from its stage-cost rows
  /// (planner/stage_cache.h). Validation and scoring run in full. Does not
  /// count in planner.estimator_calls; a caller scoring a batch bumps the
  /// counter once for all of it.
  PlanEstimate Estimate(const ParallelPlan& plan, long global_batch_size,
                        std::span<const StageCost> entries) const;

  /// Scores `plan` from all 2S-1 of its expanded stage entries, given as
  /// for the overload above, without building a PlanEstimate: no entry
  /// copy, no reason string. Validates the plan. The planner's per-split
  /// path; does not count in planner.estimator_calls.
  CandidateScore Score(const ParallelPlan& plan, long global_batch_size,
                       std::span<const StageCost> entries) const;

  /// One layer's part in ExposedAllReduce: its backward time and, when it
  /// has parameters, the AllReduce of its gradient bucket.
  struct LayerSync {
    TimeSec backward = 0.0;
    TimeSec allreduce = 0.0;
    bool has_bucket = false;
  };

  /// Prices computation stages on one device set at one micro-batch size,
  /// with the set's terms (slowest replica, bound AllReduce, each layer's
  /// sync terms) read once: a stage-cost row prices many layer ranges on
  /// the same set.
  class CompPricer {
   public:
    /// Cost entry of stage [layer_begin, layer_end) (comp_index left -1).
    StageCost operator()(int layer_begin, int layer_end, bool recompute) const;

   private:
    friend class LatencyEstimator;
    CompPricer(const LatencyEstimator& estimator, const topo::DeviceSet& devices,
               int micro_batch_size, int first_layer, int last_layer);

    const LatencyEstimator* estimator_;
    int replication_ = 0;
    double samples_ = 0.0;
    double speed_ = 0.0;
    comm::BoundAllReduce all_reduce_;
    int first_layer_ = 0;
    /// Sync terms of layers [first_layer, last_layer) (replicated sets only).
    std::vector<LayerSync> syncs_;
  };
  /// Prices the boundary between two device sets at one micro-batch size,
  /// with both directions' links read once.
  class CommPricer {
   public:
    /// Cost entry of the boundary at layer `boundary`.
    StageCost operator()(int boundary) const;

   private:
    friend class LatencyEstimator;
    CommPricer(const LatencyEstimator& estimator, const topo::DeviceSet& from,
               const topo::DeviceSet& to, int micro_batch_size);

    const LatencyEstimator* estimator_;
    int micro_batch_size_ = 0;
    comm::BoundCrossStage forward_;
    comm::BoundCrossStage backward_;
  };
  /// A pricer for stages within layers [first_layer, last_layer).
  CompPricer CompOn(const topo::DeviceSet& devices, int micro_batch_size, int first_layer,
                    int last_layer) const {
    return CompPricer(*this, devices, micro_batch_size, first_layer, last_layer);
  }
  CommPricer CommAcross(const topo::DeviceSet& from, const topo::DeviceSet& to,
                        int micro_batch_size) const {
    return CommPricer(*this, from, to, micro_batch_size);
  }

  /// Why a plan whose peak is `peak` fails the memory check:
  /// "peak memory X exceeds memory cap Y" (or "... exceeds device Y").
  std::string MemoryReason(Bytes peak) const;

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
  /// The memory check Estimate and Score share (MemoryPool convention:
  /// peak == capacity fits).
  bool OverCapacity(Bytes peak) const {
    return options_.check_memory && peak > EffectiveCapacity();
  }

  /// Sync terms of layers [first, last) on a bound set at `samples`.
  std::vector<LayerSync> LayerSyncs(int first, int last, const comm::BoundAllReduce& all_reduce,
                                    double samples) const;
  /// ExposedAllReduce of a replicated stage from its raw AllReduce and its
  /// layers' sync terms, in layer order.
  TimeSec ExposedAllReduce(TimeSec raw, std::span<const LayerSync> layers) const;

  /// Per-device peak memory of one stage holding `warmup_depth` stashes:
  /// baseline + K x (activation | checkpoint) + recompute transient.
  Bytes StagePeakMemory(const StagePlan& stage, double samples, int warmup_depth) const;

  const model::ModelProfile* model_;
  const topo::Cluster* cluster_;
  comm::CostModel cost_;
  LatencyOptions options_;
};

}  // namespace dapple::planner
