#include "planner/latency.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"

namespace dapple::planner {

LatencyEstimator::LatencyEstimator(const model::ModelProfile& model,
                                   const topo::Cluster& cluster, LatencyOptions options)
    : model_(&model), cluster_(&cluster), options_(options) {}

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

MicroBatching LatencyEstimator::MicroBatchingOf(const ParallelPlan& plan,
                                               long global_batch_size) const {
  int max_replication = 1;
  for (const StagePlan& s : plan.stages) {
    max_replication = std::max(max_replication, s.replication());
  }
  return ChooseMicroBatching(global_batch_size, model_->profile_micro_batch(), max_replication,
                             plan.num_stages());
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
  const comm::BoundAllReduce all_reduce(cluster_->interconnect(),
                                        comm::ReplicaGroup::Of(*cluster_, devices));
  return ExposedAllReduce(all_reduce(model_->ParamBytes(layer_begin, layer_end)),
                          LayerSyncs(layer_begin, layer_end, all_reduce, samples));
}

std::vector<LatencyEstimator::LayerSync> LatencyEstimator::LayerSyncs(
    int first, int last, const comm::BoundAllReduce& all_reduce, double samples) const {
  std::vector<LayerSync> syncs(static_cast<std::size_t>(last - first));
  for (int l = first; l < last; ++l) {
    LayerSync& sync = syncs[static_cast<std::size_t>(l - first)];
    sync.backward = model_->BackwardTime(l, l + 1, samples);
    const Bytes bucket = model_->ParamBytes(l, l + 1);
    sync.has_bucket = bucket != 0;
    if (sync.has_bucket) sync.allreduce = all_reduce(bucket);
  }
  return syncs;
}

TimeSec LatencyEstimator::ExposedAllReduce(TimeSec raw,
                                           std::span<const LayerSync> layers) const {
  if (!options_.overlap_allreduce) return raw;

  // Backward visits layers in reverse; a layer's gradient bucket can start
  // synchronizing as soon as its backward completes, serialized on the
  // wire. The tail extending past the backward pass is always exposed; of
  // the hideable part, only kOverlapEfficiency is actually hidden.
  TimeSec bw_elapsed = 0.0;
  TimeSec comm_free = 0.0;
  TimeSec ar_total = 0.0;
  for (auto layer = layers.rbegin(); layer != layers.rend(); ++layer) {
    bw_elapsed += layer->backward;
    if (!layer->has_bucket) continue;
    comm_free = std::max(comm_free, bw_elapsed) + layer->allreduce;
    ar_total += layer->allreduce;
  }
  const TimeSec tail = std::max(0.0, comm_free - bw_elapsed);
  const TimeSec hidden = std::max(0.0, ar_total - tail);
  return tail + (1.0 - kOverlapEfficiency) * hidden;
}

LatencyEstimator::StageMemory LatencyEstimator::StageMemoryAt(int layer_begin, int layer_end,
                                                              bool recompute,
                                                              double samples) const {
  StageMemory memory{model_->BaselineMemory(layer_begin, layer_end), 0};
  if (recompute) {
    memory.stash = model_->CheckpointMemory(layer_begin, layer_end, samples);
    // While a backward pass replays one layer block, that block's full
    // activation set is transiently resident.
    memory.fixed += model_->MaxLayerActivationMemory(layer_begin, layer_end, samples);
  } else {
    memory.stash = model_->ActivationMemory(layer_begin, layer_end, samples);
  }
  return memory;
}

Bytes LatencyEstimator::StagePeakMemory(int layer_begin, int layer_end, bool recompute,
                                        double samples, int warmup_depth) const {
  const StageMemory memory = StageMemoryAt(layer_begin, layer_end, recompute, samples);
  return memory.fixed + static_cast<Bytes>(warmup_depth) * memory.stash;
}

Bytes LatencyEstimator::EffectiveCapacity() const {
  return options_.memory_cap > 0 ? options_.memory_cap : cluster_->device().memory;
}

namespace {

/// Activation stashes stage i of S holds at its peak under `kind` at M
/// micro-batches: the schedule's unthrottled warmup depth, plus the one
/// transient stash 2BP holds until its deferred weight half frees it.
int PeakStashes(runtime::ScheduleKind kind, int i, int S, int M) {
  return runtime::WarmupDepth({kind}, i, S, M, 0) +
         (kind == runtime::ScheduleKind::kDappleSplitBw ? 1 : 0);
}

/// The worst device group's peak from every stage's piece: one stage per
/// group for the linear families; for the V shapes chunk c folds onto
/// group min(c, S-1-c), whose devices hold both hosted chunks' stashes.
Bytes FoldPeak(runtime::ScheduleKind kind, std::span<const Bytes> pieces) {
  const int S = static_cast<int>(pieces.size());
  Bytes peak = 0;
  const int groups = runtime::NumGroups(kind, S);
  const bool folded = runtime::IsVShape(kind);
  for (int g = 0; g < groups; ++g) {
    Bytes p = pieces[static_cast<std::size_t>(g)];
    const int late = S - 1 - g;
    if (folded && late != g) p += pieces[static_cast<std::size_t>(late)];
    peak = std::max(peak, p);
  }
  return peak;
}

}  // namespace

Bytes LatencyEstimator::PeakPiece(runtime::ScheduleKind kind, const ParallelPlan& plan,
                                  const MicroBatching& mb, int i) const {
  // Stage i's samples come from its host group (the stage itself for the
  // linear families; chunk folding for the V shapes). A few prefix-sum
  // reads, so it is computed, not memoized: a cache lookup would cost more.
  const int S = plan.num_stages();
  const StagePlan& stage = plan.stages[static_cast<std::size_t>(i)];
  const StagePlan& host =
      plan.stages[static_cast<std::size_t>(runtime::HostStage(kind, i, S))];
  const double samples = static_cast<double>(mb.micro_batch_size) / host.replication();
  return StagePeakMemory(stage.layer_begin, stage.layer_end, stage.recompute, samples,
                         PeakStashes(kind, i, S, mb.num_micro_batches));
}

Bytes LatencyEstimator::FamilyPeakMemory(runtime::ScheduleKind kind,
                                         const ParallelPlan& plan,
                                         const MicroBatching& mb) const {
  std::vector<Bytes> pieces(plan.stages.size());
  for (int i = 0; i < plan.num_stages(); ++i) {
    pieces[static_cast<std::size_t>(i)] = PeakPiece(kind, plan, mb, i);
  }
  return FoldPeak(kind, pieces);
}

namespace {

/// Pivot stage q's steady-state round. A computation stage alternates one
/// forward and one backward per round on a single engine. A comm stage
/// does not: the simulator gives each boundary a duplex channel pair, so
/// forward and backward transfers overlap and the round is gated by
/// max(F, B).
TimeSec PerRound(TimeSec forward, TimeSec backward, bool is_comm) {
  return is_comm ? std::max(forward, backward) : forward + backward;
}
TimeSec PerRound(const StageCost& sq) { return PerRound(sq.forward, sq.backward, sq.is_comm); }

/// Formulas 1-2 at pivot q over the expanded stage list.
TimeSec LatencyAt(std::span<const StageCost> stages, int num_micro_batches, int q,
                  TimeSec* warmup_out, TimeSec* steady_out, TimeSec* ending_out) {
  const int total = static_cast<int>(stages.size());
  const auto& sq = stages[static_cast<std::size_t>(q)];
  TimeSec warmup = 0.0;
  for (int s = 0; s <= q; ++s) {
    warmup += stages[static_cast<std::size_t>(s)].forward;
  }
  const TimeSec steady = static_cast<double>(num_micro_batches - 1) * PerRound(sq);
  TimeSec ending = 0.0;
  for (int s = 0; s < total; ++s) {
    TimeSec tail = 0.0;
    if (s <= q) {
      for (int a = s; a <= q; ++a) {
        tail += stages[static_cast<std::size_t>(a)].backward;
      }
    } else {
      for (int a = q + 1; a <= s; ++a) {
        tail -= stages[static_cast<std::size_t>(a)].backward;
      }
    }
    ending = std::max(ending, stages[static_cast<std::size_t>(s)].allreduce + tail);
  }
  if (warmup_out) *warmup_out = warmup;
  if (steady_out) *steady_out = steady;
  if (ending_out) *ending_out = ending;
  return warmup + steady + ending;
}

/// Formulas 1-2, evaluated at every pivot candidate. Formula 3 is the
/// paper's heuristic for finding the dominant stage; taking the explicit
/// maximum over q is the exact version of the same objective and stays
/// tight when several stages are nearly dominant (each L(q) is a valid
/// lower bound on the schedule length). Returns the first maximizing q.
int WorstPivot(std::span<const StageCost> stages, int num_micro_batches, TimeSec* latency) {
  int pivot = 0;
  *latency = 0.0;
  for (int q = 0; q < static_cast<int>(stages.size()); ++q) {
    const TimeSec l = LatencyAt(stages, num_micro_batches, q, nullptr, nullptr, nullptr);
    if (l > *latency) {
      *latency = l;
      pivot = q;
    }
  }
  return pivot;
}

/// ScoreSplits' terms of a prefix pivot q: warmup(q) + steady(q), warmup
/// summed from entry 0 up; the ending max over the prefix s; and the tail
/// past q, subtracted from q+1 up to the prefix end.
struct PrefixPivot {
  TimeSec lead = 0.0;
  TimeSec ending = 0.0;
  TimeSec drop = 0.0;

  bool CoveredBy(const PrefixPivot& o) const {
    return lead <= o.lead && ending <= o.ending && drop <= o.drop;
  }
};
/// ScoreSplits' terms of a prefix entry s at a split pivot: its AllReduce
/// and its tail, added from s up to the prefix end.
struct PrefixRise {
  TimeSec allreduce = 0.0;
  TimeSec rise = 0.0;

  bool CoveredBy(const PrefixRise& o) const {
    return allreduce <= o.allreduce && rise <= o.rise;
  }
};

/// Keeps, in order, the terms no other term covers componentwise; of equal
/// terms, the first. FP add, subtract and max are monotone, so a covered
/// term's L(q) never exceeds its cover's and never sets the max. A term
/// with a NaN is neither covered nor covers.
template <class Term>
void DropCovered(std::vector<Term>& terms) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const Term term = terms[i];
    // Kept terms come first; a dropped one's cover covers this term too.
    bool covered = false;
    for (std::size_t k = 0; k < kept && !covered; ++k) covered = term.CoveredBy(terms[k]);
    for (std::size_t k = i + 1; k < terms.size() && !covered; ++k) {
      covered = term.CoveredBy(terms[k]) && !terms[k].CoveredBy(term);
    }
    if (!covered) terms[kept++] = term;
  }
  terms.resize(kept);
}

}  // namespace

CompInputs CompInputs::Of(const topo::Cluster& cluster, const topo::DeviceSet& devices) {
  CompInputs inputs{comm::ReplicaGroup::Of(cluster, devices),
                    std::numeric_limits<double>::infinity()};
  for (topo::DeviceId d : devices.devices()) {
    inputs.slowest_speed = std::min(inputs.slowest_speed, cluster.device_speed(d));
  }
  return inputs;
}

LatencyEstimator::CompPricer::CompPricer(const LatencyEstimator& estimator,
                                         const CompInputs& inputs, int micro_batch_size,
                                         int first_layer, int last_layer)
    : estimator_(&estimator),
      replication_(inputs.group.size),
      samples_(static_cast<double>(micro_batch_size) / inputs.group.size),
      speed_(inputs.slowest_speed),
      all_reduce_(estimator.cluster_->interconnect(), inputs.group),
      first_layer_(first_layer) {
  if (replication_ > 1) {
    syncs_ = estimator.LayerSyncs(first_layer, last_layer, all_reduce_, samples_);
  }
}

StageCost LatencyEstimator::CompPricer::operator()(int layer_begin, int layer_end,
                                                   bool recompute) const {
  const model::ModelProfile& model = *estimator_->model_;
  StageCost comp;
  comp.is_comm = false;
  comp.forward = model.ForwardTime(layer_begin, layer_end, samples_, speed_);
  comp.backward = model.BackwardTime(layer_begin, layer_end, samples_, speed_);
  if (recompute) comp.backward += runtime::kRecomputeOverhead * comp.forward;
  if (replication_ > 1) {
    DAPPLE_CHECK(layer_begin >= first_layer_ &&
                 layer_end - first_layer_ <= static_cast<int>(syncs_.size()))
        << "stage [" << layer_begin << ", " << layer_end << ") outside the pricer's layers";
    comp.allreduce_raw = all_reduce_(model.ParamBytes(layer_begin, layer_end));
    comp.allreduce = estimator_->ExposedAllReduce(
        comp.allreduce_raw,
        std::span<const LayerSync>(syncs_).subspan(
            static_cast<std::size_t>(layer_begin - first_layer_),
            static_cast<std::size_t>(layer_end - layer_begin)));
  }
  return comp;
}

RowEntry LatencyEstimator::CompPricer::Entry(int layer_begin, int layer_end,
                                             bool recompute) const {
  const StageCost cost = (*this)(layer_begin, layer_end, recompute);
  const StageMemory memory =
      estimator_->StageMemoryAt(layer_begin, layer_end, recompute, samples_);
  return {cost.forward, cost.backward, cost.allreduce, memory.fixed, memory.stash};
}

LatencyEstimator::CommPricer::CommPricer(const LatencyEstimator& estimator,
                                         const comm::StageLink& link, int micro_batch_size)
    : estimator_(&estimator),
      micro_batch_size_(micro_batch_size),
      forward_(estimator.cluster_->interconnect(), link),
      backward_(estimator.cluster_->interconnect(), link.Reversed()) {}

StageCost LatencyEstimator::CommPricer::operator()(int boundary) const {
  const Bytes act =
      estimator_->model_->ActivationAt(boundary, static_cast<double>(micro_batch_size_));
  StageCost comm;
  comm.is_comm = true;
  comm.forward = forward_(act);
  comm.backward = backward_(act);
  return comm;
}

std::string LatencyEstimator::MemoryReason(Bytes peak) const {
  return "peak memory " + FormatBytes(peak) + " exceeds " +
         (options_.memory_cap > 0 ? "memory cap " : "device ") +
         FormatBytes(EffectiveCapacity());
}

PlanEstimate LatencyEstimator::Estimate(const ParallelPlan& plan,
                                        long global_batch_size) const {
  plan.Validate(*model_);
  PlanEstimate est;
  const MicroBatching mb = MicroBatchingOf(plan, global_batch_size);
  est.micro_batch_size = mb.micro_batch_size;
  est.num_micro_batches = mb.num_micro_batches;
  const int M = est.num_micro_batches;

  // Expanded stage list: comp0, comm01, comp1, comm12, ... Entry 2i is
  // computation stage i and entry 2i+1 the boundary after it.
  const int num_comp = plan.num_stages();
  est.stages.reserve(static_cast<std::size_t>(2 * num_comp - 1));
  for (int i = 0; i < num_comp; ++i) {
    const StagePlan& stage = plan.stages[static_cast<std::size_t>(i)];
    StageCost comp =
        CompOn(stage.devices, est.micro_batch_size, stage.layer_begin, stage.layer_end)(
            stage.layer_begin, stage.layer_end, stage.recompute);
    comp.comp_index = i;
    est.stages.push_back(comp);
    if (i + 1 < num_comp) {
      est.stages.push_back(CommAcross(stage.devices,
                                      plan.stages[static_cast<std::size_t>(i + 1)].devices,
                                      est.micro_batch_size)(stage.layer_end));
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

  est.pivot = WorstPivot(est.stages, M, &est.latency);
  LatencyAt(est.stages, M, est.pivot, &est.warmup, &est.steady, &est.ending);
  est.speedup = SingleDeviceTime(global_batch_size) / est.latency;

  // Memory feasibility under the configured schedule family's stash
  // discipline (DAPPLE warmup policy PA by default), with the MemoryPool
  // convention: peak == capacity fits, peak > capacity does not.
  const Bytes peak = FamilyPeakMemory(options_.schedule_kind, plan, mb);
  est.max_peak_memory = peak;
  est.memory_capacity = EffectiveCapacity();
  if (OverCapacity(peak)) {
    est.feasible = false;
    est.memory_limited = true;
    est.infeasible_reason = MemoryReason(peak);
  }
  obs::MetricsRegistry::Global().counter("planner.estimator_calls").Increment();
  return est;
}

void LatencyEstimator::ScoreSplits(const Splits& splits, const MicroBatching& mb,
                                   std::span<CandidateScore> scores) const {
  const std::span<const RowEntry> prefix_entries = splits.prefix_entries;
  const int S = static_cast<int>(splits.prefix.size()) + 2;
  const std::size_t V = prefix_entries.size();
  DAPPLE_CHECK_EQ(V, static_cast<std::size_t>(2 * (S - 2)))
      << "a plan of S stages has 2S-4 entries before its carved stage";
  const int L = model_->num_layers();
  DAPPLE_CHECK(splits.carved.size() >= static_cast<std::size_t>(L) &&
               splits.boundary.size() >= static_cast<std::size_t>(L) &&
               splits.suffix.size() >= static_cast<std::size_t>(L))
      << "a split row holds one entry per layer boundary";
  const int j = splits.prefix.empty() ? 0 : splits.prefix.back().layer_end;
  DAPPLE_CHECK_LT(j + 1, L) << "a subproblem at layer " << j << " has no split point";
  DAPPLE_CHECK_EQ(scores.size(), static_cast<std::size_t>(L - j - 1))
      << "one score per split point";
  const double m1 = static_cast<double>(mb.num_micro_batches - 1);

  // Formulas 1-2 at a prefix pivot q only extend over the three split
  // entries, and at a split pivot they only extend the prefix's sums. Every
  // sum is accumulated in LatencyAt's order, so each L(q) is bit-identical.
  // Prefix entries alternate computation (even) and comm (odd).
  // Per-thread scratch, reused across calls.
  thread_local std::vector<PrefixPivot> pivots;
  thread_local std::vector<PrefixRise> rises;
  pivots.resize(V);
  rises.resize(V);
  TimeSec warmup = 0.0;
  for (std::size_t q = 0; q < V; ++q) {
    const RowEntry& pivot = prefix_entries[q];
    warmup += pivot.forward;
    rises[q] = {pivot.allreduce, 0.0};
    TimeSec end = 0.0;
    for (std::size_t s = 0; s <= q; ++s) {
      rises[s].rise += pivot.backward;  // from s up to q so far
      end = std::max(end, rises[s].allreduce + rises[s].rise);
    }
    TimeSec tail = 0.0;
    for (std::size_t s = q + 1; s < V; ++s) {
      tail -= prefix_entries[s].backward;
      end = std::max(end, prefix_entries[s].allreduce + tail);
    }
    pivots[q] = {warmup + m1 * PerRound(pivot.forward, pivot.backward, q % 2 == 1), end, tail};
  }
  DropCovered(pivots);
  DropCovered(rises);

  // Peak pieces. A stage hosting itself reads fixed + K x stash from its
  // entry, whose samples are its own; a V shape's late chunk runs at its
  // host's samples and is priced from the model. The prefix stages' pieces
  // are fixed; the carved and suffix stages' change with their ranges.
  const runtime::ScheduleKind kind = options_.schedule_kind;
  const int M = mb.num_micro_batches;
  auto replication = [&](int i) {
    if (i < S - 2) return splits.prefix[static_cast<std::size_t>(i)].replication();
    return i == S - 2 ? splits.carved_replication : splits.suffix_replication;
  };
  // Stage i's stash depth, and where it runs: on its own devices, or at
  // its host's samples.
  struct Hosting {
    int depth = 0;
    bool self = true;
    double samples = 0.0;
  };
  auto hosting = [&](int i) {
    const int host = runtime::HostStage(kind, i, S);
    return Hosting{PeakStashes(kind, i, S, M), host == i,
                   static_cast<double>(mb.micro_batch_size) / replication(host)};
  };
  // The piece of a stage of [begin, end) with row entry `entry`.
  auto piece = [&](const Hosting& h, const RowEntry& entry, int begin, int end, bool recompute) {
    if (h.self) return entry.fixed + static_cast<Bytes>(h.depth) * entry.stash;
    return StagePeakMemory(begin, end, recompute, h.samples, h.depth);
  };
  const bool folded = runtime::IsVShape(kind);
  thread_local std::vector<Bytes> pieces;
  pieces.assign(static_cast<std::size_t>(folded ? S : 0), 0);
  Bytes prefix_peak = 0;  // the linear families' max over the prefix pieces
  for (int i = 0; i < S - 2; ++i) {
    const StagePlan& stage = splits.prefix[static_cast<std::size_t>(i)];
    const Bytes p = piece(hosting(i), prefix_entries[static_cast<std::size_t>(2 * i)],
                          stage.layer_begin, stage.layer_end, stage.recompute);
    if (folded) {
      pieces[static_cast<std::size_t>(i)] = p;
    } else {
      prefix_peak = std::max(prefix_peak, p);
    }
  }

  const Hosting carved_hosting = hosting(S - 2);
  const Hosting suffix_hosting = hosting(S - 1);

  for (int jp = j + 1; jp < L; ++jp) {
    const auto x = static_cast<std::size_t>(jp);
    const RowEntry& c = splits.carved[x];
    const RowEntry& k = splits.boundary[x];
    const RowEntry& u = splits.suffix[x];
    // WorstPivot's max over q starts at +0.0 and takes only a strictly
    // larger L(q), never a NaN: exactly std::max(latency, l), so the pivots
    // may come in any order.
    TimeSec latency = 0.0;
    // Prefix pivots: the tail past q runs on through the split entries.
    for (const PrefixPivot& q : pivots) {
      const TimeSec tail_c = q.drop - c.backward;
      const TimeSec tail_k = tail_c - k.backward;
      const TimeSec tail_u = tail_k - u.backward;
      TimeSec end = std::max(q.ending, c.allreduce + tail_c);
      end = std::max(end, k.allreduce + tail_k);
      end = std::max(end, u.allreduce + tail_u);
      latency = std::max(latency, q.lead + end);
    }
    // Split pivots: a prefix s's tail rises on up to the pivot.
    TimeSec end_c = 0.0, end_k = 0.0, end_u = 0.0;
    for (const PrefixRise& s : rises) {
      const TimeSec tail_c = s.rise + c.backward;
      const TimeSec tail_k = tail_c + k.backward;
      const TimeSec tail_u = tail_k + u.backward;
      end_c = std::max(end_c, s.allreduce + tail_c);
      end_k = std::max(end_k, s.allreduce + tail_k);
      end_u = std::max(end_u, s.allreduce + tail_u);
    }
    // A split entry's tail adds from itself up to the pivot, or subtracts
    // from the pivot's successor up to itself, each from 0.0.
    const TimeSec up_c = 0.0 + c.backward;
    const TimeSec up_ck = up_c + k.backward;
    const TimeSec up_k = 0.0 + k.backward;
    const TimeSec past_k = 0.0 - k.backward;
    const TimeSec past_u = 0.0 - u.backward;
    TimeSec warm = warmup + c.forward;
    end_c = std::max(end_c, c.allreduce + up_c);
    end_c = std::max(end_c, k.allreduce + past_k);
    end_c = std::max(end_c, u.allreduce + (past_k - u.backward));
    latency = std::max(latency, warm + m1 * PerRound(c.forward, c.backward, false) + end_c);
    warm += k.forward;
    end_k = std::max(end_k, c.allreduce + up_ck);
    end_k = std::max(end_k, k.allreduce + up_k);
    end_k = std::max(end_k, u.allreduce + past_u);
    latency = std::max(latency, warm + m1 * PerRound(k.forward, k.backward, true) + end_k);
    warm += u.forward;
    end_u = std::max(end_u, c.allreduce + (up_ck + u.backward));
    end_u = std::max(end_u, k.allreduce + (up_k + u.backward));
    end_u = std::max(end_u, u.allreduce + (0.0 + u.backward));
    latency = std::max(latency, warm + m1 * PerRound(u.forward, u.backward, false) + end_u);

    const Bytes carved = piece(carved_hosting, c, j, jp, splits.carved_recompute);
    const Bytes suffix = piece(suffix_hosting, u, jp, L, splits.suffix_recompute);
    Bytes peak = 0;
    if (folded) {
      pieces[static_cast<std::size_t>(S - 2)] = carved;
      pieces[static_cast<std::size_t>(S - 1)] = suffix;
      peak = FoldPeak(kind, pieces);
    } else {
      peak = std::max({prefix_peak, carved, suffix});
    }
    const bool over = OverCapacity(peak);
    scores[static_cast<std::size_t>(jp - j - 1)] = CandidateScore{!over, over, latency, peak};
  }
}

}  // namespace dapple::planner
