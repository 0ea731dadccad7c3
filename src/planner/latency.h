// Analytic pipeline-latency estimator implementing the paper's optimization
// objective (§IV-A):
//
//   Tw = sum_{s<=Q} F_s                      (warmup)
//   Ts = (M-1) (F_Q + B_Q)                   (steady, pivot stage Q)
//   Te = max_s ( AR(P_s, g_s) + tail(s) )    (ending + gradient sync)
//   L  = Tw + Ts + Te
//
// with the pivot Q taken as the exact worst case: L is evaluated at every
// stage and the maximum kept (each L(Q) is a lower bound on the schedule
// length). This replaces the paper's formula-3 pivot heuristic, which can
// pick a stage whose L(Q) falls short of the maximum when several stages
// are nearly dominant. Cross-stage communication is modeled as its own
// pipeline stage (F_s = B_s = transfer time, AR = 0), exactly as the paper
// prescribes.
#pragma once

#include <bit>
#include <cstdint>
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

/// One entry of a stage-cost row (planner/stage_cache.h), 40 bytes: what
/// ScoreSplits reads of one stage or boundary at one split. A computation
/// entry also carries its stage's memory at the row's own samples (the
/// micro-batch over the row's replica count): `fixed` is the baseline plus
/// the recompute transient, `stash` one micro-batch's stash, so a stage
/// holding K stashes peaks at fixed + K x stash. Boundary entries leave
/// both bytes 0.
struct RowEntry {
  TimeSec forward = 0.0;
  TimeSec backward = 0.0;
  TimeSec allreduce = 0.0;
  Bytes fixed = 0;
  Bytes stash = 0;
};
// Rows stay slim: carrying the bytes on the 48-byte StageCost instead cost
// a quarter more plan-cold RSS.
static_assert(sizeof(RowEntry) == 40);

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
/// Estimate on the same plan yields the same four values.
struct CandidateScore {
  bool feasible = true;
  bool memory_limited = false;
  TimeSec latency = std::numeric_limits<TimeSec>::infinity();
  Bytes peak = 0;
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
  /// Schedule family whose stash discipline the memory check models.
  /// Latency terms stay the paper's DAPPLE objective regardless.
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

/// Everything a computation stage's cost reads of its device set: the
/// replica group its gradients AllReduce over and the slowest replica's
/// speed, which gates a split micro-batch (heterogeneous clusters,
/// stragglers).
struct CompInputs {
  comm::ReplicaGroup group;
  double slowest_speed = 0.0;

  static CompInputs Of(const topo::Cluster& cluster, const topo::DeviceSet& devices);

  /// Equal when every bit agrees, the speed's included.
  bool operator==(const CompInputs& other) const {
    return group == other.group && std::bit_cast<std::uint64_t>(slowest_speed) ==
                                       std::bit_cast<std::uint64_t>(other.slowest_speed);
  }
};

/// Bound to one (model, cluster); evaluates any plan at any global batch.
class LatencyEstimator {
 public:
  LatencyEstimator(const model::ModelProfile& model, const topo::Cluster& cluster,
                   LatencyOptions options = {});

  const model::ModelProfile& model() const { return *model_; }
  const topo::Cluster& cluster() const { return *cluster_; }
  const LatencyOptions& options() const { return options_; }

  /// Full estimate for a plan at a global batch size. Each call adds one
  /// to planner.estimator_calls, which also counts every split the planner
  /// scores with ScoreSplits.
  PlanEstimate Estimate(const ParallelPlan& plan, long global_batch_size) const;

  /// One planner subproblem as ScoreSplits reads it: a fixed prefix of
  /// S-2 stages covering [0, j), the carved stage [j, jp) and the default
  /// suffix [jp, L), each on a fixed number of devices.
  struct Splits {
    std::span<const StagePlan* const> prefix;
    /// The 2(S-2) entries before the carved stage (comp0, comm01, ..., the
    /// comm into the carved stage), the same at every split.
    std::span<const RowEntry> prefix_entries;
    int carved_replication = 0;
    bool carved_recompute = false;
    int suffix_replication = 0;
    bool suffix_recompute = false;
    /// Rows indexed by jp: the carved stage, the boundary after it and the
    /// suffix.
    std::span<const RowEntry> carved;
    std::span<const RowEntry> boundary;
    std::span<const RowEntry> suffix;
  };

  /// Scores every split point of one planner subproblem in one pass, at the
  /// micro-batching `mb` of its widest stage: split jp reads its carved,
  /// boundary and suffix entries at index jp of the three rows. Writes one
  /// score per jp in (j, L), in order, to `scores`, which must hold exactly
  /// L - j - 1; each is bit-identical to Estimate on that candidate. A
  /// stage that hosts itself (every stage but the V shapes' late chunks)
  /// takes its peak piece from its row entry. The caller validates the
  /// stages. Counts nothing itself: the planner adds the splits it scores
  /// to planner.estimator_calls.
  void ScoreSplits(const Splits& splits, const MicroBatching& mb,
                   std::span<CandidateScore> scores) const;

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
  /// the same set. It reads nothing of the set beyond its CompInputs.
  class CompPricer {
   public:
    /// Cost entry of stage [layer_begin, layer_end) (comp_index left -1).
    StageCost operator()(int layer_begin, int layer_end, bool recompute) const;
    /// The same stage as a row entry, with its memory at the set's samples.
    RowEntry Entry(int layer_begin, int layer_end, bool recompute) const;

   private:
    friend class LatencyEstimator;
    CompPricer(const LatencyEstimator& estimator, const CompInputs& inputs,
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
  /// with both directions' links read once. It reads nothing of the sets
  /// beyond their comm::StageLink.
  class CommPricer {
   public:
    /// Cost entry of the boundary at layer `boundary`.
    StageCost operator()(int boundary) const;

   private:
    friend class LatencyEstimator;
    CommPricer(const LatencyEstimator& estimator, const comm::StageLink& link,
               int micro_batch_size);

    const LatencyEstimator* estimator_;
    int micro_batch_size_ = 0;
    comm::BoundCrossStage forward_;
    comm::BoundCrossStage backward_;
  };
  /// A pricer for stages within layers [first_layer, last_layer).
  CompPricer CompOn(const CompInputs& inputs, int micro_batch_size, int first_layer,
                    int last_layer) const {
    return CompPricer(*this, inputs, micro_batch_size, first_layer, last_layer);
  }
  CompPricer CompOn(const topo::DeviceSet& devices, int micro_batch_size, int first_layer,
                    int last_layer) const {
    return CompOn(CompInputs::Of(*cluster_, devices), micro_batch_size, first_layer, last_layer);
  }
  CommPricer CommAcross(const comm::StageLink& link, int micro_batch_size) const {
    return CommPricer(*this, link, micro_batch_size);
  }
  CommPricer CommAcross(const topo::DeviceSet& from, const topo::DeviceSet& to,
                        int micro_batch_size) const {
    return CommAcross(comm::StageLink::Between(*cluster_, from, to), micro_batch_size);
  }

  /// Why a plan whose peak is `peak` fails the memory check:
  /// "peak memory X exceeds memory cap Y" (or "... exceeds device Y").
  std::string MemoryReason(Bytes peak) const;

  /// The micro-batching of `plan`: ChooseMicroBatching at its widest stage
  /// and stage count.
  MicroBatching MicroBatchingOf(const ParallelPlan& plan, long global_batch_size) const;

  /// Time to run the whole global batch on one device sequentially
  /// (denominator of the paper's speedup metric). Ignores memory limits.
  TimeSec SingleDeviceTime(long global_batch_size) const;

  /// Gradient-sync time for `devices` left exposed after overlapping with
  /// the stage's own backward pass (reverse-layer order: grads of the last
  /// layers are ready first). Returns the raw AllReduce when overlap is
  /// disabled.
  TimeSec ExposedAllReduce(int layer_begin, int layer_end, const topo::DeviceSet& devices,
                           double samples) const;

  /// Capacity the memory check compares against: options().memory_cap when
  /// set, the cluster's device memory otherwise.
  Bytes EffectiveCapacity() const;

  /// Stage [layer_begin, layer_end)'s memory at `samples` per micro-batch
  /// (RowEntry::fixed and RowEntry::stash). A stage holding K stashes
  /// peaks at fixed + K x stash.
  struct StageMemory {
    Bytes fixed = 0;  // baseline + recompute transient
    Bytes stash = 0;  // one micro-batch's activation | checkpoint
  };
  StageMemory StageMemoryAt(int layer_begin, int layer_end, bool recompute,
                            double samples) const;

 private:
  /// Worst per-device peak memory of `plan` under `kind`'s stash
  /// discipline at the given micro-batching: Estimate's feasibility check.
  /// Honors per-stage recompute flags.
  Bytes FamilyPeakMemory(runtime::ScheduleKind kind, const ParallelPlan& plan,
                         const MicroBatching& mb) const;

  /// The memory check Estimate and ScoreSplits share (MemoryPool
  /// convention: peak == capacity fits).
  bool OverCapacity(Bytes peak) const {
    return options_.check_memory && peak > EffectiveCapacity();
  }

  /// Sync terms of layers [first, last) on a bound set at `samples`.
  std::vector<LayerSync> LayerSyncs(int first, int last, const comm::BoundAllReduce& all_reduce,
                                    double samples) const;
  /// ExposedAllReduce of a replicated stage from its raw AllReduce and its
  /// layers' sync terms, in layer order.
  TimeSec ExposedAllReduce(TimeSec raw, std::span<const LayerSync> layers) const;

  /// Per-device peak memory of stage [layer_begin, layer_end) holding
  /// `warmup_depth` stashes: fixed + K x stash.
  Bytes StagePeakMemory(int layer_begin, int layer_end, bool recompute, double samples,
                        int warmup_depth) const;
  /// Stage i's piece of FamilyPeakMemory: its stash depth under `kind`,
  /// at the samples of the stage hosting it.
  Bytes PeakPiece(runtime::ScheduleKind kind, const ParallelPlan& plan, const MicroBatching& mb,
                  int i) const;

  const model::ModelProfile* model_;
  const topo::Cluster* cluster_;
  LatencyOptions options_;
};

}  // namespace dapple::planner
