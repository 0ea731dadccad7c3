// Tests for the pipeline-latency estimator: the paper's formulas 1-3 have
// closed forms on simple pipelines which the estimator must reproduce
// exactly, plus the micro-batching rule and memory feasibility.
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

TEST(Latency, PivotMovesToSlowestStage) {
  std::vector<StageCost> stages(3);
  stages[0].forward = 0.010;
  stages[0].backward = 0.020;
  stages[1].forward = 0.050;  // dominant stage
  stages[1].backward = 0.100;
  stages[2].forward = 0.010;
  stages[2].backward = 0.020;
  EXPECT_EQ(LatencyEstimator::ChoosePivot(stages, 16), 1);
}

TEST(Latency, PivotStaysLastWhenBalanced) {
  std::vector<StageCost> stages(3);
  for (auto& s : stages) {
    s.forward = 0.010;
    s.backward = 0.020;
  }
  EXPECT_EQ(LatencyEstimator::ChoosePivot(stages, 16), 2);
}

TEST(Latency, PivotSingleMicroBatchDegenerate) {
  std::vector<StageCost> stages(2);
  stages[0].forward = 1.0;
  stages[0].backward = 1.0;
  stages[1].forward = 0.1;
  stages[1].backward = 0.1;
  // M = 1: steady phases are all zero; pivot stays at the last stage.
  EXPECT_EQ(LatencyEstimator::ChoosePivot(stages, 1), 1);
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
  const TimeSec raw = comm::CostModel(b).AllReduce(all, vgg.TotalParamBytes());
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
// Prefix reuse: the planner scores every split point of one subproblem from
// stage-cost rows (planner/stage_cache.h) instead of gathering each
// candidate's entries. The row entries must equal what a from-scratch
// Estimate gathers, and scoring from them must agree with it bit-for-bit,
// on every field.

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
      rng.UniformInt(0, std::min<std::int64_t>({3, layers - 2, devices - 2})));
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

/// Scores every split of `sub` twice — from scratch on a plain estimator,
/// and from the subproblem's rows in a fresh memo — and expects identical
/// entries and bits, from both Estimate and Score. Returns the number of
/// splits compared.
int ExpectPrefixReuseMatches(const ModelProfile& m, const Cluster& cluster, long gbs,
                             const LatencyOptions& options, const Subproblem& sub) {
  const LatencyEstimator estimator(m, cluster, options);
  StageRowMemo memo(estimator);

  ParallelPlan plan;
  plan.model = m.name();
  plan.stages = sub.prefix;
  plan.stages.push_back(StagePlan{sub.j, sub.j + 1, sub.carved,
                                  topo::PlacementPolicy::kFreshFirst, sub.recompute_carved});
  plan.stages.push_back(StagePlan{sub.j + 1, m.num_layers(), sub.free,
                                  topo::PlacementPolicy::kFreshFirst, sub.recompute_free});
  const std::size_t carved = sub.prefix.size();
  SplitEntries rows(memo, plan, estimator.ChooseMicroBatchSize(plan, gbs));
  int compared = 0;
  for (int jp = sub.j + 1; jp < m.num_layers(); ++jp) {
    plan.stages[carved].layer_end = jp;
    plan.stages[carved + 1].layer_begin = jp;
    const PlanEstimate fresh = estimator.Estimate(plan, gbs);
    const std::span<const StageCost> entries = rows.At(jp);
    const std::string where = m.name() + " on " + cluster.name() + ", " +
                              std::to_string(carved) + " prefix stages, j=" +
                              std::to_string(sub.j) + ", jp=" + std::to_string(jp);
    EXPECT_EQ(entries.size(), fresh.stages.size()) << where;
    for (std::size_t i = 0; i < std::min(entries.size(), fresh.stages.size()); ++i) {
      EXPECT_EQ(StageCostBits(entries[i]), StageCostBits(fresh.stages[i]))
          << where << ", entry " << i;
    }
    EXPECT_EQ(EstimateBits(estimator.Estimate(plan, gbs, entries)), EstimateBits(fresh))
        << where;
    EXPECT_EQ(ScoreBits(estimator.Score(plan, gbs, entries)),
              ScoreBits({fresh.feasible, fresh.memory_limited, fresh.latency,
                         fresh.max_peak_memory}))
        << where;
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
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    Rng rng(seed);
    Subproblem sub;
    if (!SampleSubproblem(rng, c.model, c.cluster, sub)) continue;
    LatencyOptions options = RandomLatencyOptions(rng);
    compared += ExpectPrefixReuseMatches(c.model, c.cluster, c.options.global_batch_size,
                                         options, sub);
    options.memory_cap = 1;
    infeasible += ExpectPrefixReuseMatches(c.model, c.cluster, c.options.global_batch_size,
                                           options, sub);
  }
  EXPECT_GT(compared, 400);
  EXPECT_GT(infeasible, 400);
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

TEST(LatencyPrefixReuse, RejectsMoreLeadingEntriesThanThePlanHas) {
  const ModelProfile m = MakeUniformSynthetic(4, 0.01, 0.02, 0, 0);
  const Cluster cluster = FastCluster(1, 2);
  const LatencyEstimator est(m, cluster);
  const ParallelPlan plan = TwoStagePlan(m, 2, 1, 1);
  const PlanEstimate full = est.Estimate(plan, 8);
  ASSERT_EQ(full.stages.size(), 3u);
  EXPECT_EQ(EstimateBits(est.Estimate(plan, 8, full.stages)), EstimateBits(full));
  std::vector<StageCost> too_many = full.stages;
  too_many.push_back(full.stages.back());
  EXPECT_THROW(est.Estimate(plan, 8, too_many), dapple::Error);
}

}  // namespace
}  // namespace dapple::planner
