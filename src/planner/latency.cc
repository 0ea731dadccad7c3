#include "planner/latency.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"
#include "planner/stage_cache.h"

namespace dapple::planner {

LatencyEstimator::LatencyEstimator(const model::ModelProfile& model,
                                   const topo::Cluster& cluster, LatencyOptions options)
    : model_(&model), cluster_(&cluster), cost_(cluster), options_(options) {}

MicroBatching ChooseMicroBatching(long global_batch_size, int profile_micro_batch,
                                  int max_replication, int num_stages) {
  DAPPLE_CHECK_GT(global_batch_size, 0);
  DAPPLE_CHECK_GT(profile_micro_batch, 0);
  DAPPLE_CHECK_GT(max_replication, 0);
  DAPPLE_CHECK_GT(num_stages, 0);
  // Upper bound: every replica of the widest stage must see at least one
  // example per micro-batch.
  const long m_max = std::max<long>(1, global_batch_size / max_replication);
  // Efficiency target: one profile micro-batch per replica...
  const long ideal_mbs =
      std::min<long>(global_batch_size,
                     static_cast<long>(profile_micro_batch) * max_replication);
  long target = std::max<long>(1, (global_batch_size + ideal_mbs - 1) / ideal_mbs);
  // ...but never so few micro-batches that a pipeline starves: bubble
  // fraction ~ (S-1)/M (paper SII-A). The floor is deliberately the same
  // for every multi-stage shape so competing plans are compared at the
  // same operating point; the formula-1 objective ignores internal
  // bubbles and would otherwise reward small-M plans. Pure DP (one stage)
  // is exempt: gradient accumulation has no bubbles and fewer
  // micro-batches just mean less launch overhead.
  if (num_stages >= 2) {
    target = std::max(target, std::min<long>(8, m_max));
  }
  // Round up to the next divisor of the global batch so M * mbs covers the
  // batch exactly and competing plans are compared on identical work.
  long m = std::min(target, m_max);
  while (m < m_max && global_batch_size % m != 0) ++m;
  while (m > 1 && global_batch_size % m != 0) --m;
  MicroBatching mb;
  mb.num_micro_batches = static_cast<int>(m);
  mb.micro_batch_size = static_cast<int>(global_batch_size / m);
  return mb;
}

int LatencyEstimator::ChooseMicroBatchSize(const ParallelPlan& plan,
                                           long global_batch_size) const {
  int max_replication = 1;
  for (const StagePlan& s : plan.stages) {
    max_replication = std::max(max_replication, s.replication());
  }
  return ChooseMicroBatching(global_batch_size, model_->profile_micro_batch(),
                             max_replication, plan.num_stages())
      .micro_batch_size;
}

TimeSec LatencyEstimator::SingleDeviceTime(long global_batch_size) const {
  const int mb = model_->profile_micro_batch();
  const long full = global_batch_size / mb;
  const long rem = global_batch_size % mb;
  const int n = model_->num_layers();
  TimeSec t = static_cast<double>(full) *
              (model_->ForwardTime(0, n, mb) + model_->BackwardTime(0, n, mb));
  if (rem > 0) {
    t += model_->ForwardTime(0, n, static_cast<double>(rem)) +
         model_->BackwardTime(0, n, static_cast<double>(rem));
  }
  return t;
}

TimeSec LatencyEstimator::ExposedAllReduce(int layer_begin, int layer_end,
                                           const topo::DeviceSet& devices,
                                           double samples) const {
  if (devices.size() < 2) return 0.0;
  const comm::BoundAllReduce all_reduce = cost_.AllReduceOver(devices);
  const TimeSec raw = all_reduce(model_->ParamBytes(layer_begin, layer_end));
  if (!options_.overlap_allreduce) return raw;

  // Backward visits layers in reverse; a layer's gradient bucket can start
  // synchronizing as soon as its backward completes, serialized on the
  // wire. The tail extending past the backward pass is always exposed; of
  // the hideable part, only kOverlapEfficiency is actually hidden.
  TimeSec bw_elapsed = 0.0;
  TimeSec comm_free = 0.0;
  TimeSec ar_total = 0.0;
  for (int l = layer_end - 1; l >= layer_begin; --l) {
    bw_elapsed += model_->BackwardTime(l, l + 1, samples);
    const Bytes bucket = model_->ParamBytes(l, l + 1);
    if (bucket == 0) continue;
    const TimeSec ar = all_reduce(bucket);
    comm_free = std::max(comm_free, bw_elapsed) + ar;
    ar_total += ar;
  }
  const TimeSec tail = std::max(0.0, comm_free - bw_elapsed);
  const TimeSec hidden = std::max(0.0, ar_total - tail);
  return tail + (1.0 - kOverlapEfficiency) * hidden;
}

int LatencyEstimator::ChoosePivot(const std::vector<StageCost>& stages,
                                  int num_micro_batches) {
  DAPPLE_CHECK(!stages.empty());
  const double m1 = std::max(0, num_micro_batches - 1);
  // Comm stages run forward and backward transfers on independent duplex
  // channels, so their steady phase is gated by the slower direction, not
  // the sum (see the matching term in Estimate's latency_at).
  auto steady = [&](int s) {
    const StageCost& sc = stages[static_cast<std::size_t>(s)];
    return m1 * (sc.is_comm ? std::max(sc.forward, sc.backward)
                            : sc.forward + sc.backward);
  };
  // Paper formula 3: start at the last stage and move the pivot to an
  // earlier stage s whenever s's bubble-free steady phase dominates Q's
  // steady phase plus the forward/backward costs separating them.
  int q = static_cast<int>(stages.size()) - 1;
  for (int s = q - 1; s >= 0; --s) {
    double separation = 0.0;
    for (int a = s + 1; a <= q - 1; ++a) {
      separation += stages[static_cast<std::size_t>(a)].forward +
                    stages[static_cast<std::size_t>(a)].backward;
    }
    if (steady(s) > steady(q) + separation) {
      q = s;
    }
  }
  return q;
}

Bytes LatencyEstimator::StagePeakMemory(const StagePlan& stage, double samples,
                                        int warmup_depth) const {
  const Bytes baseline = model_->BaselineMemory(stage.layer_begin, stage.layer_end);
  Bytes per_micro;
  Bytes transient = 0;
  if (stage.recompute) {
    per_micro = model_->CheckpointMemory(stage.layer_begin, stage.layer_end, samples);
    // While a backward pass replays one layer block, that block's full
    // activation set is transiently resident.
    transient =
        model_->MaxLayerActivationMemory(stage.layer_begin, stage.layer_end, samples);
  } else {
    per_micro = model_->ActivationMemory(stage.layer_begin, stage.layer_end, samples);
  }
  return baseline + static_cast<Bytes>(warmup_depth) * per_micro + transient;
}

Bytes LatencyEstimator::EffectiveCapacity() const {
  return options_.memory_cap > 0 ? options_.memory_cap : cluster_->device().memory;
}

Bytes LatencyEstimator::FamilyPeakMemory(runtime::ScheduleKind kind,
                                         const ParallelPlan& plan,
                                         const MicroBatching& mb) const {
  const int S = plan.num_stages();
  const int M = mb.num_micro_batches;
  // Per-stage stash piece: baseline + K x (activation | checkpoint) +
  // recompute transient. A few prefix-sum reads, so it is computed, not
  // memoized: a cache lookup would cost more. Stage i's samples come from
  // its host group (the stage itself for the linear families; chunk
  // folding for the V shapes).
  auto piece = [&](int i, int k) -> Bytes {
    const StagePlan& host =
        plan.stages[static_cast<std::size_t>(runtime::HostStage(kind, i, S))];
    const double samples =
        static_cast<double>(mb.micro_batch_size) / host.replication();
    return StagePeakMemory(plan.stages[static_cast<std::size_t>(i)], samples, k);
  };

  Bytes peak = 0;
  switch (kind) {
    case runtime::ScheduleKind::kGPipe:
      // GPipe stashes every micro-batch before the first backward.
      for (int i = 0; i < S; ++i) peak = std::max(peak, piece(i, M));
      break;
    case runtime::ScheduleKind::kDapple:
    case runtime::ScheduleKind::kDappleSplitBw:
      // 1F1B warmup policy PA: K_i = min(S - i, M); 2BP holds one extra
      // transient stash until its deferred weight half frees it.
      for (int i = 0; i < S; ++i) {
        const int k = std::min(S - i, M) +
                      (kind == runtime::ScheduleKind::kDappleSplitBw ? 1 : 0);
        peak = std::max(peak, piece(i, k));
      }
      break;
    case runtime::ScheduleKind::kVMin:
    case runtime::ScheduleKind::kVHalf: {
      // Chunk c folds onto group min(c, S-1-c); a group's devices hold both
      // hosted chunks' stashes, each capped by its VStashCap.
      const int groups = runtime::NumGroups(kind, S);
      for (int g = 0; g < groups; ++g) {
        const int late = S - 1 - g;
        Bytes p = piece(g, std::min(runtime::VStashCap(kind, g, S), M));
        if (late != g) {
          p += piece(late, std::min(runtime::VStashCap(kind, late, S), M));
        }
        peak = std::max(peak, p);
      }
      break;
    }
  }
  return peak;
}

ScheduleFamilyEstimate LatencyEstimator::EstimateFamily(runtime::ScheduleKind kind,
                                                        const ParallelPlan& plan,
                                                        long global_batch_size) const {
  plan.Validate(*model_);
  ScheduleFamilyEstimate est;
  est.kind = kind;
  int max_replication = 1;
  for (const StagePlan& s : plan.stages) {
    max_replication = std::max(max_replication, s.replication());
  }
  const MicroBatching mb =
      ChooseMicroBatching(global_batch_size, model_->profile_micro_batch(),
                          max_replication, plan.num_stages());
  est.micro_batch_size = mb.micro_batch_size;
  est.num_micro_batches = mb.num_micro_batches;
  const int S = plan.num_stages();
  const int M = mb.num_micro_batches;

  // Per-chunk compute costs. For the V shapes chunk c runs on its host
  // group's devices, so its samples/speed come from there. The memory side
  // lives in FamilyPeakMemory (shared with Estimate's feasibility check).
  std::vector<TimeSec> fwd(static_cast<std::size_t>(S)), bwd(static_cast<std::size_t>(S)),
      bwd_raw(static_cast<std::size_t>(S));
  for (int i = 0; i < S; ++i) {
    const StagePlan& stage = plan.stages[static_cast<std::size_t>(i)];
    const StagePlan& host =
        plan.stages[static_cast<std::size_t>(runtime::HostStage(kind, i, S))];
    const double samples =
        static_cast<double>(mb.micro_batch_size) / host.replication();
    double speed = std::numeric_limits<double>::infinity();
    for (topo::DeviceId d : host.devices.devices()) {
      speed = std::min(speed, cluster_->device_speed(d));
    }
    const auto idx = static_cast<std::size_t>(i);
    fwd[idx] = model_->ForwardTime(stage.layer_begin, stage.layer_end, samples, speed);
    bwd_raw[idx] =
        model_->BackwardTime(stage.layer_begin, stage.layer_end, samples, speed);
    bwd[idx] = bwd_raw[idx];
    if (stage.recompute) bwd[idx] += runtime::kRecomputeOverhead * fwd[idx];
  }
  TimeSec sum_f = 0.0, sum_b = 0.0, max_f = 0.0, max_b = 0.0, max_round = 0.0;
  for (int i = 0; i < S; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    sum_f += fwd[idx];
    sum_b += bwd[idx];
    max_f = std::max(max_f, fwd[idx]);
    max_b = std::max(max_b, bwd[idx]);
    max_round = std::max(max_round, fwd[idx] + bwd[idx]);
  }

  const double m1 = static_cast<double>(M - 1);
  switch (kind) {
    case runtime::ScheduleKind::kGPipe: {
      est.latency = sum_f + m1 * max_f + sum_b + m1 * max_b;
      break;
    }
    case runtime::ScheduleKind::kDapple:
    case runtime::ScheduleKind::kDappleSplitBw: {
      const bool split_bw = kind == runtime::ScheduleKind::kDappleSplitBw;
      TimeSec drain = 0.0;
      for (int i = 0; i < S; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        // 2BP's drain cascade waits only on the backward-input halves
        // (recompute overhead included there); stage 0 then finishes its
        // own deferred weight half.
        drain += split_bw ? bwd[idx] - 0.5 * bwd_raw[idx] : bwd[idx];
      }
      if (split_bw) drain += 0.5 * bwd_raw[0];
      est.latency = sum_f + m1 * max_round + drain;
      break;
    }
    case runtime::ScheduleKind::kVMin:
    case runtime::ScheduleKind::kVHalf: {
      const int groups = runtime::NumGroups(kind, S);
      TimeSec round = 0.0;
      for (int g = 0; g < groups; ++g) {
        const int late = S - 1 - g;
        TimeSec r = fwd[static_cast<std::size_t>(g)] + bwd[static_cast<std::size_t>(g)];
        if (late != g) {
          r += fwd[static_cast<std::size_t>(late)] + bwd[static_cast<std::size_t>(late)];
        }
        round = std::max(round, r);
      }
      est.latency = sum_f + m1 * round + sum_b;
      break;
    }
  }
  est.max_peak_memory = FamilyPeakMemory(kind, plan, mb);

  // Compute-only utilization over the device groups the family occupies.
  const int groups = runtime::NumGroups(kind, S);
  const TimeSec busy = static_cast<double>(M) * (sum_f + sum_b);
  if (est.latency > 0.0 && groups > 0) {
    est.bubble_ratio =
        std::max(0.0, 1.0 - busy / (static_cast<double>(groups) * est.latency));
  }
  return est;
}

PlanEstimate LatencyEstimator::Estimate(const ParallelPlan& plan,
                                        long global_batch_size) const {
  PlanEstimate est = Estimate(plan, global_batch_size, {});
  obs::MetricsRegistry::Global().counter("planner.estimator_calls").Increment();
  return est;
}

PlanEstimate LatencyEstimator::Estimate(const ParallelPlan& plan, long global_batch_size,
                                        std::span<const StageCost> leading) const {
  plan.Validate(*model_);
  PlanEstimate est;
  int max_replication = 1;
  for (const StagePlan& s : plan.stages) {
    max_replication = std::max(max_replication, s.replication());
  }
  const MicroBatching mb =
      ChooseMicroBatching(global_batch_size, model_->profile_micro_batch(),
                          max_replication, plan.num_stages());
  est.micro_batch_size = mb.micro_batch_size;
  est.num_micro_batches = mb.num_micro_batches;
  const int M = est.num_micro_batches;

  // Expanded stage list: comp0, comm01, comp1, comm12, ... Entry 2i is
  // computation stage i and entry 2i+1 the boundary after it. Each entry's
  // cost is a pure function of (layer range, devices, micro-batch size)
  // given this estimator's fixed model/cluster/options, so it is memoized
  // in the attached stage-cost cache when the planner provides one. The
  // caller's leading entries are taken as given; only the rest is gathered.
  const int num_comp = plan.num_stages();
  const std::size_t given = leading.size();
  DAPPLE_CHECK_LT(given, static_cast<std::size_t>(2 * num_comp))
      << "more leading stage entries than the plan has";
  est.stages.reserve(static_cast<std::size_t>(2 * num_comp - 1));
  est.stages.assign(leading.begin(), leading.end());
  for (int i = static_cast<int>(given / 2); i < num_comp; ++i) {
    const StagePlan& stage = plan.stages[static_cast<std::size_t>(i)];
    const double samples =
        static_cast<double>(est.micro_batch_size) / stage.replication();
    auto compute_comp = [&]() -> StageCost {
      // The slowest replica gates the stage: a split micro-batch completes
      // only when every slice has (heterogeneous clusters, stragglers).
      double stage_speed = std::numeric_limits<double>::infinity();
      for (topo::DeviceId d : stage.devices.devices()) {
        stage_speed = std::min(stage_speed, cluster_->device_speed(d));
      }
      StageCost comp;
      comp.is_comm = false;
      comp.forward =
          model_->ForwardTime(stage.layer_begin, stage.layer_end, samples, stage_speed);
      comp.backward =
          model_->BackwardTime(stage.layer_begin, stage.layer_end, samples, stage_speed);
      if (stage.recompute) comp.backward += runtime::kRecomputeOverhead * comp.forward;
      comp.allreduce_raw = stage.replication() > 1
                               ? cost_.AllReduce(stage.devices, model_->ParamBytes(
                                                                    stage.layer_begin,
                                                                    stage.layer_end))
                               : 0.0;
      comp.allreduce =
          ExposedAllReduce(stage.layer_begin, stage.layer_end, stage.devices, samples);
      return comp;
    };
    if (static_cast<std::size_t>(2 * i) >= given) {
      StageCost comp =
          cache_ ? cache_
                       ->GetOrCompute(StageCostCache::CompKey(stage.layer_begin,
                                                              stage.layer_end, stage.devices,
                                                              est.micro_batch_size,
                                                              stage.recompute),
                                      compute_comp)
                 : compute_comp();
      comp.comp_index = i;  // plan-relative, so assigned outside the memo
      est.stages.push_back(comp);
    }

    if (i + 1 < num_comp) {
      const StagePlan& next = plan.stages[static_cast<std::size_t>(i + 1)];
      auto compute_comm = [&]() -> StageCost {
        const Bytes act = model_->ActivationAt(stage.layer_end,
                                               static_cast<double>(est.micro_batch_size));
        StageCost comm;
        comm.is_comm = true;
        comm.forward = cost_.CrossStage(stage.devices, next.devices, act);
        comm.backward = cost_.CrossStage(next.devices, stage.devices, act);
        return comm;
      };
      const StageCost comm =
          cache_ ? cache_
                       ->GetOrCompute(StageCostCache::CommKey(stage.layer_end, stage.devices,
                                                              next.devices,
                                                              est.micro_batch_size),
                                      compute_comm)
                 : compute_comm();
      est.stages.push_back(comm);
    }
  }

  // ACR: mean network stage cost over mean computation stage cost.
  {
    double comm_sum = 0.0, comp_sum = 0.0;
    int comm_n = 0, comp_n = 0;
    for (const StageCost& s : est.stages) {
      if (s.is_comm) {
        comm_sum += s.forward + s.backward;
        ++comm_n;
      } else {
        comp_sum += s.forward + s.backward;
        ++comp_n;
      }
    }
    if (comm_n > 0 && comp_sum > 0.0) {
      est.acr = (comm_sum / comm_n) / (comp_sum / comp_n);
    }
  }

  // Formulas 1-2, evaluated at every pivot candidate. Formula 3 is the
  // paper's heuristic for finding the dominant stage; taking the explicit
  // maximum over q is the exact version of the same objective and stays
  // tight when several stages are nearly dominant (each L(q) is a valid
  // lower bound on the schedule length).
  const int total = static_cast<int>(est.stages.size());
  auto latency_at = [&](int q, TimeSec* warmup_out, TimeSec* steady_out,
                        TimeSec* ending_out) {
    const auto& sq = est.stages[static_cast<std::size_t>(q)];
    TimeSec warmup = 0.0;
    for (int s = 0; s <= q; ++s) {
      warmup += est.stages[static_cast<std::size_t>(s)].forward;
    }
    // A computation stage alternates one forward and one backward per
    // steady-state round on a single engine. A comm stage does not: the
    // simulator gives each boundary a duplex channel pair, so forward and
    // backward transfers overlap and the round is gated by max(F, B).
    const TimeSec per_round =
        sq.is_comm ? std::max(sq.forward, sq.backward) : sq.forward + sq.backward;
    const TimeSec steady = static_cast<double>(M - 1) * per_round;
    TimeSec ending = 0.0;
    for (int s = 0; s < total; ++s) {
      TimeSec tail = 0.0;
      if (s <= q) {
        for (int a = s; a <= q; ++a) {
          tail += est.stages[static_cast<std::size_t>(a)].backward;
        }
      } else {
        for (int a = q + 1; a <= s; ++a) {
          tail -= est.stages[static_cast<std::size_t>(a)].backward;
        }
      }
      ending = std::max(ending, est.stages[static_cast<std::size_t>(s)].allreduce + tail);
    }
    if (warmup_out) *warmup_out = warmup;
    if (steady_out) *steady_out = steady;
    if (ending_out) *ending_out = ending;
    return warmup + steady + ending;
  };

  est.pivot = 0;
  est.latency = 0.0;
  for (int q = 0; q < total; ++q) {
    const TimeSec l = latency_at(q, nullptr, nullptr, nullptr);
    if (l > est.latency) {
      est.latency = l;
      est.pivot = q;
    }
  }
  latency_at(est.pivot, &est.warmup, &est.steady, &est.ending);
  est.speedup = SingleDeviceTime(global_batch_size) / est.latency;

  // Memory feasibility under the configured schedule family's stash
  // discipline (DAPPLE warmup policy PA by default). Shares FamilyPeakMemory
  // with EstimateFamily so cap semantics agree byte-for-byte, and uses the
  // MemoryPool convention: peak == capacity fits, peak > capacity does not.
  const Bytes peak = FamilyPeakMemory(options_.schedule_kind, plan, mb);
  est.max_peak_memory = peak;
  est.memory_capacity = EffectiveCapacity();
  if (options_.check_memory && peak > est.memory_capacity) {
    est.feasible = false;
    est.memory_limited = true;
    est.infeasible_reason =
        "peak memory " + FormatBytes(peak) + " exceeds " +
        (options_.memory_cap > 0 ? "memory cap " : "device ") +
        FormatBytes(est.memory_capacity);
  }
  return est;
}

}  // namespace dapple::planner
