// Tests for the pipeline-latency estimator: the paper's formulas 1-2 have
// closed forms on simple pipelines which the estimator must reproduce
// exactly, plus the pivot, the micro-batching rule and memory feasibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "common/error.h"
#include "common/rng.h"
#include "estimate_bits.h"
#include "model/zoo.h"
#include "planner/dp_baseline.h"
#include "planner/latency.h"
#include "planner/stage_cache.h"
#include "topo/cluster.h"

namespace dapple::planner {
namespace {

using model::MakeUniformSynthetic;
using model::ModelProfile;
using topo::Cluster;
using topo::DeviceSet;

// A cluster with effectively free communication isolates the compute-side
// formulas.
Cluster FastCluster(int servers, int gpus) {
  topo::InterconnectSpec net;
  net.intra_server_bandwidth = GBps(1e9);
  net.inter_server_bandwidth = GBps(1e9);
  net.intra_server_latency = 0.0;
  net.inter_server_latency = 0.0;
  return Cluster("fast", servers, gpus, topo::DeviceSpec{}, net);
}

ParallelPlan TwoStagePlan(const ModelProfile& m, int split, int p, int q) {
  ParallelPlan plan;
  plan.model = m.name();
  StagePlan s0;
  s0.layer_begin = 0;
  s0.layer_end = split;
  s0.devices = DeviceSet::Range(0, p);
  StagePlan s1;
  s1.layer_begin = split;
  s1.layer_end = m.num_layers();
  s1.devices = DeviceSet::Range(p, q);
  plan.stages = {s0, s1};
  return plan;
}

TEST(MicroBatching, IdealDividesExactly) {
  // GBS 64, profile 2, widest stage 8 -> mbs 16, M 4.
  const MicroBatching mb = ChooseMicroBatching(64, 2, 8);
  EXPECT_EQ(mb.micro_batch_size, 16);
  EXPECT_EQ(mb.num_micro_batches, 4);
}

TEST(MicroBatching, RoundsUpToNextDivisor) {
  // GBS 64, ideal mbs 22 -> target M ceil(64/22)=3 -> next divisor 4.
  const MicroBatching mb = ChooseMicroBatching(64, 2, 11);
  EXPECT_EQ(mb.num_micro_batches, 4);
  EXPECT_EQ(mb.micro_batch_size, 16);
}

TEST(MicroBatching, ProductAlwaysEqualsGlobalBatch) {
  for (long gbs : {64L, 128L, 1024L, 100L, 96L}) {
    for (int repl : {1, 3, 5, 8, 16}) {
      const MicroBatching mb = ChooseMicroBatching(gbs, 2, repl);
      EXPECT_EQ(static_cast<long>(mb.micro_batch_size) * mb.num_micro_batches, gbs);
    }
  }
}

TEST(MicroBatching, SmallGlobalBatchIsOneMicroBatch) {
  const MicroBatching mb = ChooseMicroBatching(2, 4, 1);
  EXPECT_EQ(mb.num_micro_batches, 1);
  EXPECT_EQ(mb.micro_batch_size, 2);
}

TEST(Latency, SingleStageClosedForm) {
  // One stage on one device: L = M (F + B), no AllReduce.
  const ModelProfile m = MakeUniformSynthetic(4, 0.010, 0.020, 0, 0);
  const Cluster cluster = FastCluster(1, 1);
  LatencyEstimator est(m, cluster);
  ParallelPlan plan;
  plan.model = m.name();
  StagePlan s;
  s.layer_begin = 0;
  s.layer_end = 4;
  s.devices = DeviceSet::Range(0, 1);
  plan.stages = {s};
  const PlanEstimate e = est.Estimate(plan, 8);
  EXPECT_EQ(e.num_micro_batches, 8);
  EXPECT_NEAR(e.latency, 8 * (0.040 + 0.080), 1e-9);
  EXPECT_EQ(e.pivot, 0);
  EXPECT_EQ(e.acr, 0.0);
}

TEST(Latency, TwoEqualStagesClosedForm) {
  // Perfectly even split, free comm: L = 2F + (M-1)(F+B) + 2B where F, B
  // are per-stage times (the classic 1F1B latency).
  const ModelProfile m = MakeUniformSynthetic(4, 0.010, 0.020, 0, 0);
  const Cluster cluster = FastCluster(1, 2);
  LatencyEstimator est(m, cluster);
  const ParallelPlan plan = TwoStagePlan(m, 2, 1, 1);
  const PlanEstimate e = est.Estimate(plan, 8);
  const double f = 0.020, b = 0.040;  // two layers per stage
  EXPECT_EQ(e.num_micro_batches, 8);
  EXPECT_NEAR(e.latency, 2 * f + 7 * (f + b) + 2 * b, 1e-6);
}

// A straight pipeline of one device per stage, stage i holding layers[i]
// layers.
ParallelPlan StraightPlan(const ModelProfile& m, const std::vector<int>& layers) {
  ParallelPlan plan;
  plan.model = m.name();
  int begin = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    StagePlan stage;
    stage.layer_begin = begin;
    begin += layers[i];
    stage.layer_end = begin;
    stage.devices = DeviceSet::Range(static_cast<int>(i), 1);
    plan.stages.push_back(stage);
  }
  return plan;
}

// The pivot is the stage whose formula 1-2 latency is the maximum. Uniform
// layers and free communication: a stage's F and B scale with its layer
// count, and entry 2i of the expanded list is computation stage i.
TEST(Latency, PivotMovesToSlowestStage) {
  const ModelProfile m = MakeUniformSynthetic(7, 0.010, 0.020, 0, 0);
  const Cluster cluster = FastCluster(1, 3);
  const LatencyEstimator est(m, cluster);
  const PlanEstimate e = est.Estimate(StraightPlan(m, {1, 5, 1}), 16);
  ASSERT_EQ(e.num_micro_batches, 16);
  EXPECT_EQ(e.pivot, 2);
  // Tw = F0 + F1, Ts = 15 (F1 + B1), Te = B0 + B1.
  EXPECT_NEAR(e.latency, 0.06 + 15 * 0.15 + 0.12, 1e-9);
}

TEST(Latency, PivotStaysLastWhenBalanced) {
  const ModelProfile m = MakeUniformSynthetic(3, 0.010, 0.020, 0, 0);
  const Cluster cluster = FastCluster(1, 3);
  const LatencyEstimator est(m, cluster);
  const PlanEstimate e = est.Estimate(StraightPlan(m, {1, 1, 1}), 16);
  ASSERT_EQ(e.num_micro_batches, 16);
  EXPECT_EQ(e.pivot, 4);
}

TEST(Latency, PivotSingleMicroBatchDegenerate) {
  // M = 1: every steady phase is zero, so the pivot is the last stage (the
  // full forward and backward sweep), however unbalanced the stages are.
  const ModelProfile m = MakeUniformSynthetic(11, 0.010, 0.020, 0, 0);
  const Cluster cluster = FastCluster(1, 2);
  const LatencyEstimator est(m, cluster);
  const PlanEstimate e = est.Estimate(StraightPlan(m, {10, 1}), 1);
  ASSERT_EQ(e.num_micro_batches, 1);
  EXPECT_EQ(e.pivot, 2);
  EXPECT_NEAR(e.latency, 11 * 0.010 + 11 * 0.020, 1e-9);
}

TEST(Latency, FewerStagesAreMoreEfficientAtFixedWork) {
  // GPipe/DAPPLE insight (SII-A): pipeline efficiency 1/(1 + (1+a)(S-1)/M)
  // falls with S at fixed M and alpha. Compare straight pipelines of 2, 4,
  // and 8 stages by per-device efficiency (speedup / devices used).
  const ModelProfile m = MakeUniformSynthetic(8, 0.010, 0.020, 0, 0);
  const Cluster cluster = FastCluster(1, 8);
  LatencyEstimator est(m, cluster);

  auto efficiency = [&](int stages) {
    ParallelPlan plan;
    plan.model = m.name();
    const int per = 8 / stages;
    for (int s = 0; s < stages; ++s) {
      StagePlan sp;
      sp.layer_begin = s * per;
      sp.layer_end = (s + 1) * per;
      sp.devices = DeviceSet::Range(s, 1);
      plan.stages.push_back(sp);
    }
    // Same M for all shapes so the comparison isolates S.
    PlanEstimate e = est.Estimate(plan, 16);
    EXPECT_EQ(e.num_micro_batches, 16);
    return e.speedup / stages;
  };
  EXPECT_GT(efficiency(2), efficiency(4));
  EXPECT_GT(efficiency(4), efficiency(8));
}

TEST(Latency, MoreMicroBatchesImproveEfficiency) {
  const ModelProfile m = MakeUniformSynthetic(4, 0.010, 0.020, 0, 0);
  const Cluster cluster = FastCluster(1, 2);
  LatencyEstimator est(m, cluster);
  const ParallelPlan plan = TwoStagePlan(m, 2, 1, 1);
  const PlanEstimate e8 = est.Estimate(plan, 8);
  const PlanEstimate e64 = est.Estimate(plan, 64);
  EXPECT_GT(e64.speedup, e8.speedup);
  EXPECT_LE(e64.speedup, 2.0 + 1e-9);
}

TEST(Latency, AcrReflectsCommComputeRatio) {
  const model::ModelProfile heavy_act =
      MakeUniformSynthetic(4, 0.001, 0.002, 64_MiB, 1000, 1);
  const topo::Cluster slow = topo::MakeConfigC(2);
  LatencyEstimator est(heavy_act, slow);
  const ParallelPlan plan = TwoStagePlan(heavy_act, 2, 1, 1);
  const PlanEstimate e = est.Estimate(plan, 8);
  EXPECT_GT(e.acr, 1.0);  // 64MB over 10Gbps dwarfs 3ms compute

  const model::ModelProfile light_act =
      MakeUniformSynthetic(4, 0.050, 0.100, 1_MiB, 1000, 1);
  LatencyEstimator est2(light_act, slow);
  const PlanEstimate e2 = est2.Estimate(TwoStagePlan(light_act, 2, 1, 1), 8);
  EXPECT_LT(e2.acr, 0.1);
}

TEST(Latency, ExposedAllReduceHidesBehindBackward) {
  // Long backward + small gradients: fully hidden. Short backward + huge
  // gradients: mostly exposed.
  const model::ModelProfile small_grads =
      MakeUniformSynthetic(4, 0.050, 0.100, 0, 1'000'000, 1);
  const topo::Cluster a = topo::MakeConfigA(1);
  LatencyOptions overlap;
  overlap.overlap_allreduce = true;
  LatencyEstimator est(small_grads, a, overlap);
  const TimeSec exposed = est.ExposedAllReduce(0, 4, DeviceSet::Range(0, 8), 1.0);
  EXPECT_LT(exposed, 1e-3);

  const model::ModelProfile big_grads =
      MakeUniformSynthetic(4, 0.0001, 0.0002, 0, 200'000'000, 1);
  LatencyEstimator est2(big_grads, a, overlap);
  const TimeSec exposed2 = est2.ExposedAllReduce(0, 4, DeviceSet::Range(0, 8), 1.0);
  EXPECT_GT(exposed2, 5e-3);
}

TEST(Latency, OverlapNeverWorseThanRaw) {
  const model::ModelProfile m = model::MakeBert48();
  const topo::Cluster a = topo::MakeConfigA(2);
  LatencyOptions no_overlap;
  no_overlap.overlap_allreduce = false;
  LatencyEstimator raw(m, a, no_overlap);
  LatencyEstimator hidden(m, a);
  const TimeSec t_raw = raw.ExposedAllReduce(0, 24, DeviceSet::Range(0, 8), 2.0);
  const TimeSec t_hidden = hidden.ExposedAllReduce(0, 24, DeviceSet::Range(0, 8), 2.0);
  EXPECT_LE(t_hidden, t_raw);
  EXPECT_GT(t_raw, 0.0);
}

TEST(Latency, RecomputeIncreasesBackwardAndShrinksMemory) {
  const model::ModelProfile bert = model::MakeBert48();
  const topo::Cluster b = topo::MakeConfigB(2);
  LatencyEstimator est(bert, b);
  const ParallelPlan plan = TwoStagePlan(bert, 24, 1, 1);
  ParallelPlan recomputed = plan;
  for (StagePlan& s : recomputed.stages) s.recompute = true;
  const PlanEstimate e_plain = est.Estimate(plan, 16);
  const PlanEstimate e_rc = est.Estimate(recomputed, 16);
  EXPECT_GT(e_rc.latency, e_plain.latency);
  EXPECT_LT(e_rc.max_peak_memory, e_plain.max_peak_memory);
}

TEST(Latency, DataParallelInfeasibleForAmoebaNet) {
  const model::ModelProfile amoeba = model::MakeAmoebaNet36();
  const topo::Cluster a = topo::MakeConfigA(2);
  const auto dp = EstimateDataParallel(amoeba, a, 128, DataParallelVariant::kOverlap);
  EXPECT_FALSE(dp.feasible);  // Table V: "DP not available due to memory"
}

TEST(Latency, DataParallelOverlapBeatsNoOverlap) {
  const model::ModelProfile vgg = model::MakeVgg19();
  const topo::Cluster b = topo::MakeConfigB(16);
  const auto no = EstimateDataParallel(vgg, b, 2048, DataParallelVariant::kNoOverlap);
  const auto yes = EstimateDataParallel(vgg, b, 2048, DataParallelVariant::kOverlap);
  ASSERT_TRUE(no.feasible);
  ASSERT_TRUE(yes.feasible);
  EXPECT_LT(yes.iteration_time, no.iteration_time);
  EXPECT_GT(yes.speedup, no.speedup);
}

TEST(Latency, VggOverlapIsEspeciallyEffective) {
  // §VI-B: VGG's weights live at the end while compute lives at the front;
  // backward visits the fc layers first, so nearly all gradient traffic
  // hides behind the conv backward. The exposed fraction must be small.
  const model::ModelProfile vgg = model::MakeVgg19();
  const topo::Cluster b = topo::MakeConfigB(16);
  LatencyEstimator est(vgg, b);
  const DeviceSet all = DeviceSet::Range(0, 16);
  const TimeSec raw = comm::BoundAllReduce(b.interconnect(), comm::ReplicaGroup::Of(b, all))(
      vgg.TotalParamBytes());
  const TimeSec exposed = est.ExposedAllReduce(0, vgg.num_layers(), all, 128.0);
  EXPECT_LT(exposed, 0.55 * raw);
}

TEST(Latency, SingleDeviceTimeHandlesRemainders) {
  const ModelProfile m = MakeUniformSynthetic(2, 0.010, 0.020, 0, 0, /*profile_mb=*/4);
  const Cluster cluster = FastCluster(1, 1);
  LatencyEstimator est(m, cluster);
  // 10 samples at profile 4: two full micro-batches + remainder of 2.
  const TimeSec full = est.SingleDeviceTime(8);
  const TimeSec with_rem = est.SingleDeviceTime(10);
  EXPECT_GT(with_rem, full);
  EXPECT_LT(with_rem, est.SingleDeviceTime(12) + 1e-12);
}

TEST(Latency, EstimateValidatesPlan) {
  const ModelProfile m = MakeUniformSynthetic(4, 0.01, 0.02, 0, 0);
  const Cluster cluster = FastCluster(1, 2);
  LatencyEstimator est(m, cluster);
  ParallelPlan bad;
  bad.model = m.name();
  StagePlan s;
  s.layer_begin = 1;  // does not start at 0
  s.layer_end = 4;
  s.devices = DeviceSet::Range(0, 1);
  bad.stages = {s};
  EXPECT_THROW(est.Estimate(bad, 8), dapple::Error);
}

// ---------------------------------------------------------------------------
// Prefix reuse: the planner scores every split point of one subproblem in
// one LatencyEstimator::ScoreSplits pass over stage-cost rows
// (planner/stage_cache.h) instead of estimating each candidate. The row
// entries must equal what a from-scratch Estimate gathers, their memory
// bytes the stage's own, and ScoreSplits must agree with Estimate
// bit-for-bit.

/// A random subproblem: `prefix` stages covering [0, j), the carved stage's
/// devices D and the suffix's devices F, all disjoint. Empty when the
/// instance is too small to split.
struct Subproblem {
  std::vector<StagePlan> prefix;
  int j = 0;
  DeviceSet carved;
  DeviceSet free;
  bool recompute_carved = false;
  bool recompute_free = false;
};

/// Up to six prefix stages, each with at least one layer and one device.
bool SampleSubproblem(Rng& rng, const ModelProfile& m, const Cluster& cluster, Subproblem& out) {
  const int layers = m.num_layers();
  const int devices = cluster.num_devices();
  if (layers < 2 || devices < 2) return false;
  std::vector<topo::DeviceId> ids;
  for (topo::DeviceId d = 0; d < devices; ++d) ids.push_back(d);
  for (int i = devices - 1; i > 0; --i) {
    std::swap(ids[static_cast<std::size_t>(i)],
              ids[static_cast<std::size_t>(rng.UniformInt(0, i))]);
  }
  auto take = [&ids](int n) {
    std::vector<topo::DeviceId> set(ids.end() - n, ids.end());
    ids.resize(ids.size() - static_cast<std::size_t>(n));
    std::sort(set.begin(), set.end());
    return DeviceSet(std::move(set));
  };
  // Leave at least one layer past j (one split point) and one device each
  // for D and F.
  const int k = static_cast<int>(
      rng.UniformInt(0, std::min<std::int64_t>({6, layers - 2, devices - 2})));
  out = Subproblem{};
  for (int i = 0; i < k; ++i) {
    StagePlan stage;
    stage.layer_begin = out.j;
    stage.layer_end = static_cast<int>(rng.UniformInt(out.j + 1, layers - 2 - (k - 1 - i)));
    const int spare = static_cast<int>(ids.size()) - 2 - (k - 1 - i);
    stage.devices = take(static_cast<int>(rng.UniformInt(1, std::max(1, spare / 2))));
    stage.recompute = rng.Bernoulli(0.3);
    out.j = stage.layer_end;
    out.prefix.push_back(std::move(stage));
  }
  out.carved = take(static_cast<int>(rng.UniformInt(1, static_cast<int>(ids.size()) - 1)));
  out.free = take(static_cast<int>(ids.size()));
  out.recompute_carved = rng.Bernoulli(0.3);
  out.recompute_free = rng.Bernoulli(0.3);
  return true;
}

/// The row entry of stage `i` of `plan` as Estimate prices it: its times
/// from `fresh`, and for a computation stage its baseline plus recompute
/// transient and its one-micro-batch stash at its own samples.
RowEntry ExpectedEntry(const ModelProfile& m, const ParallelPlan& plan, const PlanEstimate& fresh,
                       std::size_t i) {
  const StageCost& cost = fresh.stages[i];
  RowEntry entry{cost.forward, cost.backward, cost.allreduce, 0, 0};
  if (cost.is_comm) return entry;
  const StagePlan& stage = plan.stages[static_cast<std::size_t>(cost.comp_index)];
  const double samples = static_cast<double>(fresh.micro_batch_size) / stage.replication();
  entry.fixed = m.BaselineMemory(stage.layer_begin, stage.layer_end);
  if (stage.recompute) {
    entry.fixed += m.MaxLayerActivationMemory(stage.layer_begin, stage.layer_end, samples);
    entry.stash = m.CheckpointMemory(stage.layer_begin, stage.layer_end, samples);
  } else {
    entry.stash = m.ActivationMemory(stage.layer_begin, stage.layer_end, samples);
  }
  return entry;
}

/// Scores every split of `sub` twice — from scratch on a plain estimator
/// per split, and in one ScoreSplits pass over the subproblem's rows in a
/// fresh memo — and expects the row entries read by index to equal the
/// fresh estimate's stage entries (times and memory bytes), and the scores
/// its bits. Returns the number of splits compared.
int ExpectPrefixReuseMatches(const ModelProfile& m, const Cluster& cluster, long gbs,
                             const LatencyOptions& options, const Subproblem& sub) {
  const LatencyEstimator estimator(m, cluster, options);

  ParallelPlan plan;
  plan.model = m.name();
  plan.stages = sub.prefix;
  plan.stages.push_back(StagePlan{sub.j, sub.j + 1, sub.carved,
                                  topo::PlacementPolicy::kFreshFirst, sub.recompute_carved});
  plan.stages.push_back(StagePlan{sub.j + 1, m.num_layers(), sub.free,
                                  topo::PlacementPolicy::kFreshFirst, sub.recompute_free});
  const std::size_t carved = sub.prefix.size();
  const MicroBatching mb = estimator.MicroBatchingOf(plan, gbs);
  StageRowMemo memo(estimator, {mb.micro_batch_size});
  const StageRowMemo::Rows rows = memo.At(0);
  const RowInputs& inputs = memo.inputs();
  auto comp = [&](const DeviceSet& set) { return inputs.Comp(set.PerServerCounts(cluster)); };
  auto link = [&](const DeviceSet& from, const DeviceSet& to) {
    return inputs.Link(from.PerServerCounts(cluster), to.PerServerCounts(cluster));
  };
  std::vector<RowEntry> prefix;
  for (std::size_t i = 0; i < carved; ++i) {
    const StagePlan& stage = plan.stages[i];
    const auto x = static_cast<std::size_t>(stage.layer_end);
    prefix.push_back(rows.Begin(stage.layer_begin, stage.recompute, comp(stage.devices))[x]);
    prefix.push_back(rows.Comm(link(stage.devices, plan.stages[i + 1].devices))[x]);
  }
  const std::span<const RowEntry> carved_row =
      rows.Begin(sub.j, sub.recompute_carved, comp(sub.carved));
  const std::span<const RowEntry> boundary_row = rows.Comm(link(sub.carved, sub.free));
  const std::span<const RowEntry> suffix_row = rows.End(sub.recompute_free, comp(sub.free));
  std::vector<CandidateScore> scores(static_cast<std::size_t>(m.num_layers() - sub.j - 1));
  std::vector<const StagePlan*> prefix_stages;
  for (const StagePlan& stage : sub.prefix) prefix_stages.push_back(&stage);
  estimator.ScoreSplits({prefix_stages, prefix, sub.carved.size(), sub.recompute_carved,
                         sub.free.size(), sub.recompute_free, carved_row, boundary_row,
                         suffix_row},
                        mb, scores);
  int compared = 0;
  for (int jp = sub.j + 1; jp < m.num_layers(); ++jp) {
    plan.stages[carved].layer_end = jp;
    plan.stages[carved + 1].layer_begin = jp;
    const PlanEstimate fresh = estimator.Estimate(plan, gbs);
    // The entries Estimate prices: the fixed prefix, then index jp of the
    // carved, boundary and suffix rows.
    std::vector<RowEntry> entries = prefix;
    const auto x = static_cast<std::size_t>(jp);
    entries.push_back(carved_row[x]);
    entries.push_back(boundary_row[x]);
    entries.push_back(suffix_row[x]);
    const std::string where = m.name() + " on " + cluster.name() + ", " +
                              std::to_string(carved) + " prefix stages, j=" +
                              std::to_string(sub.j) + ", jp=" + std::to_string(jp);
    EXPECT_EQ(entries.size(), fresh.stages.size()) << where;
    for (std::size_t i = 0; i < std::min(entries.size(), fresh.stages.size()); ++i) {
      EXPECT_EQ(RowEntryBits(entries[i]), RowEntryBits(ExpectedEntry(m, plan, fresh, i)))
          << where << ", entry " << i;
    }
    const auto i = static_cast<std::size_t>(jp - sub.j - 1);
    if (i < scores.size()) {
      EXPECT_EQ(ScoreBits(scores[i]), ScoreBits({fresh.feasible, fresh.memory_limited,
                                                 fresh.latency, fresh.max_peak_memory}))
          << where;
    }
    ++compared;
  }
  return compared;
}

LatencyOptions RandomLatencyOptions(Rng& rng) {
  LatencyOptions options;
  const auto& kinds = runtime::AllScheduleKinds();
  options.schedule_kind = kinds[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(kinds.size()) - 1))];
  options.overlap_allreduce = rng.Bernoulli(0.7);
  // Small caps on some draws, so infeasible splits (and their reason
  // strings) are compared too.
  if (rng.Bernoulli(0.4)) options.memory_cap = static_cast<Bytes>(rng.UniformInt(1, 8)) * 1_GiB;
  return options;
}

TEST(LatencyPrefixReuse, MatchesFullEstimateOnFuzzInstances) {
  int compared = 0, infeasible = 0;
  std::vector<int> prefix_stages(7, 0);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    Rng rng(seed);
    Subproblem sub;
    if (!SampleSubproblem(rng, c.model, c.cluster, sub)) continue;
    ++prefix_stages[sub.prefix.size()];
    LatencyOptions options = RandomLatencyOptions(rng);
    compared += ExpectPrefixReuseMatches(c.model, c.cluster, c.options.global_batch_size,
                                         options, sub);
    options.memory_cap = 1;
    infeasible += ExpectPrefixReuseMatches(c.model, c.cluster, c.options.global_batch_size,
                                           options, sub);
  }
  EXPECT_GT(compared, 400);
  EXPECT_GT(infeasible, 400);
  // The draw reaches deep prefixes, not only the first few stages.
  EXPECT_GE(prefix_stages[4] + prefix_stages[5] + prefix_stages[6], 10);
}

TEST(LatencyPrefixReuse, MatchesFullEstimateOnTableVInstances) {
  struct Instance {
    const char* model;
    char config;
    long gbs;
  };
  const Instance instances[] = {{"GNMT-16", 'A', 1024}, {"BERT-48", 'B', 64},
                                {"AmoebaNet-36", 'C', 128}};
  Rng rng(16);
  for (const Instance& instance : instances) {
    const ModelProfile m = model::ModelByName(instance.model);
    const Cluster cluster = instance.config == 'A' ? topo::MakeConfigA(2)
                                                   : topo::MakeConfig(instance.config, 16);
    int compared = 0;
    for (int sample = 0; sample < 6; ++sample) {
      Subproblem sub;
      ASSERT_TRUE(SampleSubproblem(rng, m, cluster, sub));
      compared += ExpectPrefixReuseMatches(m, cluster, instance.gbs, RandomLatencyOptions(rng), sub);
    }
    EXPECT_GT(compared, 6) << instance.model;
  }
}

/// A subproblem of `prefix_stages` one-layer stages on `width` devices
/// each, the carved stage on the next two devices and the suffix on the rest.
Subproblem PinnedSubproblem(const Cluster& cluster, int prefix_stages, bool recompute,
                            int width = 1) {
  Subproblem sub;
  for (int i = 0; i < prefix_stages; ++i) {
    sub.prefix.push_back(StagePlan{i, i + 1, DeviceSet::Range(i * width, width),
                                   topo::PlacementPolicy::kFreshFirst, recompute && i % 2 == 0});
  }
  const int used = prefix_stages * width;
  sub.j = prefix_stages;
  sub.carved = DeviceSet::Range(used, 2);
  sub.free = DeviceSet::Range(used + 2, cluster.num_devices() - used - 2);
  sub.recompute_carved = recompute;
  sub.recompute_free = !recompute;
  return sub;
}

/// ExpectPrefixReuseMatches on PinnedSubproblem(cluster, prefix_stages,
/// width) for every ScheduleKind, both recompute settings and two caps
/// (none, and one byte so every split is infeasible), expecting every split
/// compared.
void ExpectEveryKindMatches(const ModelProfile& m, const Cluster& cluster, long gbs,
                            int prefix_stages, int width = 1) {
  for (runtime::ScheduleKind kind : runtime::AllScheduleKinds()) {
    for (const bool recompute : {false, true}) {
      for (const Bytes cap : {Bytes{0}, Bytes{1}}) {
        LatencyOptions options;
        options.schedule_kind = kind;
        options.memory_cap = cap;
        const Subproblem sub = PinnedSubproblem(cluster, prefix_stages, recompute, width);
        const int splits = ExpectPrefixReuseMatches(m, cluster, gbs, options, sub);
        EXPECT_EQ(splits, m.num_layers() - sub.j - 1);
      }
    }
  }
}

TEST(LatencyPrefixReuse, MatchesFullEstimateForEveryScheduleKindAndFlag) {
  const ModelProfile m = model::ModelByName("GNMT-16");
  // One device per prefix stage, two for the carved stage, one or more free.
  const Cluster cluster = topo::MakeConfig('B', m.num_layers() + 1);
  // S = 2 (no prefix entries), a mid-size prefix, and j = L-2 (one split).
  for (const int k : {0, 3, 6, m.num_layers() - 2}) {
    ExpectEveryKindMatches(m, cluster, 256, k);
  }
}

TEST(LatencyPrefixReuse, MatchesFullEstimateWhenPrefixTermsTie) {
  // Identical one-layer stages with no activation: every boundary costs
  // exactly 0, so a boundary's tail equals the next stage's bit for bit
  // and each prefix pivot ties the one before it in two of its three terms.
  // ScoreSplits drops the covered terms, keeping the first of equal ones.
  const ModelProfile m = MakeUniformSynthetic(24, 0.01, 0.02, 0, 1000);
  const Cluster cluster = FastCluster(1, 12);
  for (const int k : {1, 4, 8}) ExpectEveryKindMatches(m, cluster, 64, k);

  // Tied terms that set the max: with no backward time every prefix stage's
  // (AllReduce, rise) term is the same bits, and three prefix stages of four
  // devices out-AllReduce a one-layer carved stage on two, while the suffix,
  // on one device, has no AllReduce. Exactly one of the tied terms must stay.
  const ModelProfile flat = MakeUniformSynthetic(8, 0.01, 0.0, 0, 100'000'000);
  topo::InterconnectSpec net;
  net.intra_server_bandwidth = GBps(1.0);
  net.intra_server_latency = 0.0;
  ExpectEveryKindMatches(flat, Cluster("tied", 1, 3 * 4 + 3, topo::DeviceSpec{}, net), 64, 3, 4);
}

TEST(LatencyPrefixReuse, MatchesFullEstimateWhenTheMaxPivotTradesLeadForDrop) {
  // Two prefix stages on one device each: layer 0 (F 0.011, B 0.022 per
  // sample) is a little heavier than layer 1 (0.010, 0.020). Layers 2-7
  // compute almost nothing but hold 100M parameters each, so the carved
  // and suffix AllReduces (about 0.6 s per layer at 1 GB/s) set every
  // pivot's ending, and tiny activations make the boundaries nearly free.
  // GBS 32 on a widest stage of 4 gives M = 8 micro-batches of 4 samples.
  // Pivot 0 (stage 0) then leads by 7 x 0.012 - 0.04 = 0.044 s over pivot 2
  // (stage 1), but its tail past itself is longer by B(comm01) + B(stage 1)
  // = 0.08 s: pivot 2 sets the max with a smaller lead and a larger drop,
  // so the filter must keep both terms.
  std::vector<model::LayerProfile> layers(8);
  for (int i = 0; i < 8; ++i) {
    model::LayerProfile& l = layers[static_cast<std::size_t>(i)];
    l.name = "layer" + std::to_string(i);
    l.forward_time = i == 0 ? 0.011 : i == 1 ? 0.010 : 0.001;
    l.backward_time = 2 * l.forward_time;
    l.output_activation = 1_KiB;
    l.activation_memory = 1_KiB;
    l.param_count = i < 2 ? 1000 : 100'000'000;
  }
  const ModelProfile m("trade-off", std::move(layers), 1, model::OptimizerKind::kSGD);
  topo::InterconnectSpec net;
  net.intra_server_bandwidth = GBps(1.0);
  net.intra_server_latency = 0.0;
  const Cluster cluster("trade-off", 1, 8, topo::DeviceSpec{}, net);
  const long gbs = 32;

  const Subproblem sub = PinnedSubproblem(cluster, 2, false);
  ParallelPlan plan;
  plan.model = m.name();
  plan.stages = sub.prefix;
  plan.stages.push_back(StagePlan{sub.j, sub.j + 1, sub.carved});
  plan.stages.push_back(StagePlan{sub.j + 1, m.num_layers(), sub.free});
  const LatencyEstimator estimator(m, cluster);
  for (int jp = sub.j + 1; jp < m.num_layers(); ++jp) {
    plan.stages[2].layer_end = jp;
    plan.stages[3].layer_begin = jp;
    const PlanEstimate est = estimator.Estimate(plan, gbs);
    ASSERT_EQ(est.num_micro_batches, 8);
    // Prefix pivot q's lead (warmup + steady) and drop (its negative tail
    // over the rest of the prefix), from the estimate's stage list.
    auto lead = [&](std::size_t q) {
      double warmup = 0.0;
      for (std::size_t s = 0; s <= q; ++s) warmup += est.stages[s].forward;
      return warmup + 7 * (est.stages[q].forward + est.stages[q].backward);
    };
    auto drop = [&](std::size_t q) {
      double tail = 0.0;
      for (std::size_t s = q + 1; s < 4; ++s) tail -= est.stages[s].backward;
      return tail;
    };
    EXPECT_EQ(est.pivot, 2) << "jp=" << jp;
    EXPECT_GT(lead(0), lead(2)) << "jp=" << jp;
    EXPECT_LT(drop(0), drop(2)) << "jp=" << jp;
  }
  ExpectEveryKindMatches(m, cluster, gbs, 2);
}

TEST(LatencyPrefixReuse, MatchesFullEstimateOnADeepPrefix) {
  // 16 prefix stages (32 prefix entries) of an uneven model across two
  // servers; the Table V searches average 2.6 prefix entries per split.
  const ModelProfile m = model::ModelByName("AmoebaNet-36");
  ExpectEveryKindMatches(m, topo::MakeConfigA(3), 128, 16);
}

TEST(LatencyPrefixReuse, ScoreSplitsRejectsAMismatchedPrefix) {
  const ModelProfile m = MakeUniformSynthetic(4, 0.01, 0.02, 0, 0);
  const Cluster cluster = FastCluster(1, 2);
  const LatencyEstimator est(m, cluster);
  const ParallelPlan plan = TwoStagePlan(m, 2, 1, 1);
  const MicroBatching mb = est.MicroBatchingOf(plan, 8);
  const PlanEstimate full = est.Estimate(plan, 8);
  const StageCost& cost = full.stages[0];
  const std::vector<RowEntry> row(4, RowEntry{cost.forward, cost.backward, cost.allreduce, 0, 0});
  LatencyEstimator::Splits splits{{}, {}, 1, false, 1, false, row, row, row};
  std::vector<CandidateScore> scores(3);
  EXPECT_NO_THROW(est.ScoreSplits(splits, mb, scores));
  // One score per split point in (0, 4), neither fewer nor more.
  EXPECT_THROW(est.ScoreSplits(splits, mb, std::span(scores).first(2)), dapple::Error);
  std::vector<CandidateScore> four(4);
  EXPECT_THROW(est.ScoreSplits(splits, mb, four), dapple::Error);
  splits.prefix_entries = std::span(row).first(1);
  EXPECT_THROW(est.ScoreSplits(splits, mb, scores), dapple::Error);
  splits.prefix_entries = {};
  splits.carved = std::span(row).first(3);
  EXPECT_THROW(est.ScoreSplits(splits, mb, scores), dapple::Error);
}
}  // namespace
}  // namespace dapple::planner
