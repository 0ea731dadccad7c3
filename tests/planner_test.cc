// Tests for the DAPPLE planner (paper SIV): plan selection on synthetic and
// calibrated models, memory-driven feasibility, uneven-partition preference
// (Fig. 7), and agreement with brute force on tiny instances.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"
#include "dapple/dapple.h"
#include "estimate_bits.h"
#include "model/zoo.h"
#include "obs/metrics.h"
#include "planner/dp_baseline.h"
#include "planner/dp_planner.h"
#include "planner/plan_io.h"
#include "topo/cluster.h"

namespace dapple::planner {
namespace {

using model::MakeUniformSynthetic;
using topo::DeviceSet;

PlannerOptions Opts(long gbs) {
  PlannerOptions o;
  o.global_batch_size = gbs;
  return o;
}

TEST(Planner, ComputeHeavyModelPrefersDataParallel) {
  // Tiny weights, big compute: gradient sync is negligible, DP wins.
  const auto m = MakeUniformSynthetic(8, 0.050, 0.100, 1_MiB, 100'000, 1);
  const auto cluster = topo::MakeConfigA(1);
  DapplePlanner planner(m, cluster, Opts(64));
  const PlanResult result = planner.Plan();
  EXPECT_TRUE(result.plan.IsDataParallel());
  EXPECT_GT(result.stats.candidates_evaluated, 10);
}

TEST(Planner, HeavyGradientsOnSlowNetworkPreferPipeline) {
  // Huge uniform weights on 10 Gbps: replication means GBs of AllReduce,
  // so the planner must partition instead.
  const auto m = MakeUniformSynthetic(8, 0.020, 0.040, 1_MiB, 40'000'000, 1);
  const auto cluster = topo::MakeConfigC(4);
  DapplePlanner planner(m, cluster, Opts(64));
  const PlanResult result = planner.Plan();
  EXPECT_GT(result.plan.num_stages(), 1);
}

TEST(Planner, PlanIsValidAndUsesOnlyAvailableDevices) {
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigA(2);
  DapplePlanner planner(bert, cluster, Opts(64));
  const PlanResult result = planner.Plan();
  result.plan.Validate(bert);
  EXPECT_LE(result.plan.num_devices(), cluster.num_devices());
  for (const StagePlan& s : result.plan.stages) {
    for (topo::DeviceId d : s.devices.devices()) {
      EXPECT_LT(d, cluster.num_devices());
    }
  }
}

TEST(Planner, Bert48ConfigAMatchesPaperTableV) {
  // Table V: BERT-48 on 2x8 Config-A plans an 8:8 two-stage pipeline with
  // a near-even split (23:25) and small ACR (~0.06).
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigA(2);
  DapplePlanner planner(bert, cluster, Opts(64));
  const PlanResult result = planner.Plan();
  ASSERT_EQ(result.plan.num_stages(), 2);
  EXPECT_EQ(result.plan.stages[0].replication(), 8);
  EXPECT_EQ(result.plan.stages[1].replication(), 8);
  // Each stage sits inside one server (gradients stay on NVLink).
  EXPECT_TRUE(result.plan.stages[0].devices.SingleServer(cluster));
  EXPECT_TRUE(result.plan.stages[1].devices.SingleServer(cluster));
  // Near-even split.
  EXPECT_NEAR(result.plan.stages[0].num_layers(), 24, 2);
  EXPECT_LT(result.estimate.acr, 0.2);
}

TEST(Planner, AmoebaNetPlansPipelineDespiteDpInfeasibility) {
  // Table V: DP is not available (OOM); the planner must still return a
  // feasible multi-stage plan.
  const auto amoeba = model::MakeAmoebaNet36();
  const auto cluster = topo::MakeConfigA(2);
  DapplePlanner planner(amoeba, cluster, Opts(128));
  const PlanResult result = planner.Plan();
  EXPECT_GT(result.plan.num_stages(), 1);
  EXPECT_TRUE(result.estimate.feasible);
  EXPECT_LE(result.estimate.max_peak_memory, cluster.device().memory);
}

TEST(Planner, UnevenSplitBeatsEvenOnImbalancedModel) {
  // Fig. 7's insight: for a model whose halves are unequal, the best split
  // is slightly uneven. GNMT's decoder layers cost 1.45x encoder layers,
  // so the 16-layer split shifts into the decoder (the paper plans 9:7;
  // under our calibration the optimum lands at 9-10 encoder-side layers --
  // never the even 8:8).
  const auto gnmt = model::MakeGnmt16();
  const auto cluster = topo::MakeConfigA(2);
  DapplePlanner planner(gnmt, cluster, Opts(1024));

  // Build the candidate family explicitly: 8:8 devices, split k : 16-k.
  auto two_stage = [&](int split) {
    ParallelPlan p;
    p.model = gnmt.name();
    StagePlan s0, s1;
    s0.layer_begin = 0;
    s0.layer_end = split;
    s0.devices = DeviceSet::Range(0, 8);
    s1.layer_begin = split;
    s1.layer_end = 16;
    s1.devices = DeviceSet::Range(8, 8);
    p.stages = {s0, s1};
    return p;
  };
  const PlanEstimate e_even = planner.Evaluate(two_stage(8));
  const PlanEstimate e_9 = planner.Evaluate(two_stage(9));
  EXPECT_LT(e_9.latency, e_even.latency);

  // The planner's own choice is an uneven two-stage 8:8 pipeline with the
  // boundary shifted into the decoder.
  const PlanResult result = planner.Plan();
  ASSERT_EQ(result.plan.num_stages(), 2);
  EXPECT_GE(result.plan.stages[0].num_layers(), 9);
  EXPECT_LE(result.plan.stages[0].num_layers(), 11);
}

TEST(Planner, MaxStagesCapRespected) {
  const auto m = MakeUniformSynthetic(8, 0.02, 0.04, 1_MiB, 40'000'000, 1);
  const auto cluster = topo::MakeConfigC(8);
  PlannerOptions o = Opts(64);
  o.max_stages = 2;
  DapplePlanner planner(m, cluster, o);
  const PlanResult result = planner.Plan();
  EXPECT_LE(result.plan.num_stages(), 2);
}

TEST(Planner, MatchesBruteForceOnTinyInstance) {
  // 3 layers, 2 flat devices: enumerate every contiguous partition into 1
  // or 2 stages by hand and check the planner finds the best latency.
  const auto m = MakeUniformSynthetic(3, 0.010, 0.020, 8_MiB, 20'000'000, 1);
  const auto cluster = topo::MakeConfigC(2);
  DapplePlanner planner(m, cluster, Opts(8));
  const PlanResult result = planner.Plan();

  double best_brute = std::numeric_limits<double>::infinity();
  // DP on both devices.
  {
    ParallelPlan dp = MakeDataParallelPlan(m, cluster);
    const auto e = planner.Evaluate(dp);
    if (e.feasible) best_brute = std::min(best_brute, e.latency);
  }
  // Two-stage splits.
  for (int split = 1; split < 3; ++split) {
    ParallelPlan p;
    p.model = m.name();
    StagePlan s0, s1;
    s0.layer_begin = 0;
    s0.layer_end = split;
    s0.devices = DeviceSet::Range(0, 1);
    s1.layer_begin = split;
    s1.layer_end = 3;
    s1.devices = DeviceSet::Range(1, 1);
    p.stages = {s0, s1};
    const auto e = planner.Evaluate(p);
    if (e.feasible) best_brute = std::min(best_brute, e.latency);
  }
  EXPECT_NEAR(result.estimate.latency, best_brute, 1e-12);
}

TEST(Planner, RequiresGlobalBatch) {
  const auto m = MakeUniformSynthetic(2, 0.01, 0.02, 0, 0, 1);
  const auto cluster = topo::MakeConfigB(2);
  EXPECT_THROW(DapplePlanner(m, cluster, PlannerOptions{}), dapple::Error);
}

TEST(Planner, ThrowsWhenNothingFits) {
  // A model so large that even a 16-stage pipeline cannot hold it.
  const auto huge = MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB,
                                         2'000'000'000ull, 1,
                                         model::OptimizerKind::kAdam);
  const auto cluster = topo::MakeConfigB(2);
  DapplePlanner planner(huge, cluster, Opts(8));
  EXPECT_THROW(planner.Plan(), NoFeasiblePlan);
}

TEST(Planner, VggOnSlowNetworkIsolatesFullyConnectedStage) {
  // SVI-B: on 10 Gbps (Config-C) the planner avoids replicating the fc
  // weights: the final stage (containing fc6..fc8) stays narrow.
  const auto vgg = model::MakeVgg19();
  const auto cluster = topo::MakeConfigC(16);
  DapplePlanner planner(vgg, cluster, Opts(2048));
  const PlanResult result = planner.Plan();
  ASSERT_GT(result.plan.num_stages(), 1);
  const StagePlan& last = result.plan.stages.back();
  // The fc tail is not replicated across many machines.
  EXPECT_LE(last.replication(), 2);
  // The split keeps the parameter-heavy fc layers in the narrow stage.
  EXPECT_LE(last.layer_begin, 22);
  EXPECT_GE(last.layer_begin, 15);
  // And the hybrid beats data parallelism on this network.
  const auto dp = EstimateDataParallel(vgg, cluster, 2048, DataParallelVariant::kOverlap);
  ASSERT_TRUE(dp.feasible);
  EXPECT_LT(result.estimate.latency, dp.iteration_time);
}

TEST(Planner, EvaluateMatchesPlanEstimateForChosenPlan) {
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigA(2);
  DapplePlanner planner(bert, cluster, Opts(64));
  const PlanResult result = planner.Plan();
  const PlanEstimate re = planner.Evaluate(result.plan);
  EXPECT_NEAR(re.latency, result.estimate.latency, 1e-12);
}

// ---------------------------------------------------------------------------
// The search scores split points from a shared prefix and builds plans only
// for candidates that can win. Every estimate it hands out must still be
// exactly what a fresh evaluation of the returned plan gives.

/// Expects the winner's and every alternative's stored estimate to equal
/// DapplePlanner::Evaluate of its plan, bit for bit.
void ExpectStoredEstimatesAreExact(const model::ModelProfile& m, const topo::Cluster& cluster,
                                   const PlannerOptions& options, const std::string& label) {
  const DapplePlanner planner(m, cluster, options);
  const PlanResult result = planner.Plan();
  EXPECT_EQ(EstimateBits(result.estimate), EstimateBits(planner.Evaluate(result.plan)))
      << label << ": winner";
  ASSERT_GT(result.alternatives.size(), 1u) << label;
  for (std::size_t i = 0; i < result.alternatives.size(); ++i) {
    const auto& [plan, estimate] = result.alternatives[i];
    EXPECT_EQ(EstimateBits(estimate), EstimateBits(planner.Evaluate(plan)))
        << label << ": alternative " << i << " " << plan.ToDetailedString();
  }
}

TEST(PlannerOracle, StoredEstimatesMatchEvaluateUnderEveryScheduleFamily) {
  const auto gnmt = model::MakeGnmt16();
  const auto cluster = topo::MakeConfigA(2);
  for (runtime::ScheduleKind kind : {runtime::ScheduleKind::kDapple,
                                     runtime::ScheduleKind::kGPipe,
                                     runtime::ScheduleKind::kVMin}) {
    for (int threads : {1, 8}) {
      PlannerOptions options = Opts(1024);
      options.latency.schedule_kind = kind;
      options.num_threads = threads;
      ExpectStoredEstimatesAreExact(gnmt, cluster, options,
                                    std::string(runtime::ToString(kind)) + " @ " +
                                        std::to_string(threads) + " threads");
    }
  }
}

TEST(PlannerOracle, StoredEstimatesMatchEvaluateUnderAMemoryCap) {
  // A cap at 0.4x the uncapped winner's peak: nothing fits without
  // recomputation, so kAll flags every stage and kAuto trims the flags
  // plan by plan after its retry.
  const auto xlnet = model::MakeXlnet36();
  const auto cluster = topo::MakeConfigA(1);
  const Bytes peak = DapplePlanner(xlnet, cluster, Opts(64)).Plan().estimate.max_peak_memory;
  PlannerOptions plain = Opts(64);
  plain.latency.memory_cap = peak * 2 / 5;
  ASSERT_THROW(DapplePlanner(xlnet, cluster, plain).Plan(), Error);
  for (RecomputePolicy recompute : {RecomputePolicy::kAll, RecomputePolicy::kAuto}) {
    for (int threads : {1, 8}) {
      PlannerOptions options = plain;
      options.recompute = recompute;
      options.num_threads = threads;
      ExpectStoredEstimatesAreExact(xlnet, cluster, options,
                                    std::string("recompute=") + ToString(recompute) + " @ " +
                                        std::to_string(threads) + " threads");
    }
  }
}

TEST(PlannerOracle, TableVCandidateCountsArePinned) {
  // The search visits exactly the candidates it always has: scoring from a
  // shared prefix and lazy plan building change the cost, not the space.
  struct Instance {
    const char* model;
    topo::Cluster cluster;
    long gbs;
    long candidates;
  };
  const Instance instances[] = {
      {"GNMT-16", topo::MakeConfigA(2), 1024, 49'362},
      {"BERT-48", topo::MakeConfig('B', 16), 64, 107'855},
      {"AmoebaNet-36", topo::MakeConfigA(2), 128, 387'236},
  };
  for (const Instance& instance : instances) {
    PlannerOptions options = Opts(instance.gbs);
    const PlanResult result =
        DapplePlanner(model::ModelByName(instance.model), instance.cluster, options).Plan();
    EXPECT_EQ(result.stats.candidates_evaluated, instance.candidates) << instance.model;
  }
}

TEST(PlannerOracle, StageRowCountIsPinned) {
  // Stage rows are keyed by what their pricer reads, not by device ids: on
  // 16 Config-A devices GNMT-16 holds one row per distinct (replica count,
  // span, slowest device) or (replica counts, link kinds), at every thread
  // count. A finer key would hold more than ten times as many. Each row is
  // filled exactly once, so the row traffic is the same at every thread
  // count too, and every miss is a row.
  for (int threads : {1, 8}) {
    PlannerOptions options = Opts(2048);
    options.num_threads = threads;
    const PlanResult result =
        DapplePlanner(model::ModelByName("GNMT-16"), topo::MakeConfigA(2), options).Plan();
    EXPECT_EQ(result.stats.cache_misses, 524) << threads << " threads";
    EXPECT_EQ(result.stats.cache_hits, 34924) << threads << " threads";
    EXPECT_EQ(obs::MetricsRegistry::Global().gauge("planner.cache.entries").value(), 524.0);
  }
}

TEST(PlannerOracle, PlacementMemoFillsOncePerCountVector) {
  // A node's placements depend only on its per-server used counts, so the
  // search fills one placement-memo entry per distinct count vector and
  // reads it for every other node with those counts: GNMT-16 on 16
  // Config-A devices walks 432 nodes with 63 distinct vectors, at every
  // thread count, and stays inside the memo's byte budget. Every walk
  // fills or hits. Under a search budget the budget pass walks each node
  // once more, before the level's batches, and fills nothing new.
  auto& metrics = obs::MetricsRegistry::Global();
  auto traffic = [&] {
    return std::array<std::int64_t, 3>{metrics.counter("planner.placement_memo.fills").value(),
                                       metrics.counter("planner.placement_memo.hits").value(),
                                       metrics.counter("planner.placement_memo.clears").value()};
  };
  constexpr std::int64_t kWalks = 432;
  for (int threads : {1, 8}) {
    PlannerOptions options = Opts(1024);
    options.num_threads = threads;
    std::array<std::int64_t, 3> before = traffic();
    const PlanResult unbounded =
        DapplePlanner(model::ModelByName("GNMT-16"), topo::MakeConfigA(2), options).Plan();
    std::array<std::int64_t, 3> after = traffic();
    EXPECT_EQ(after[0] - before[0], 63) << threads << " threads";
    EXPECT_EQ(after[1] - before[1], 369) << threads << " threads";
    EXPECT_EQ(after[0] - before[0] + after[1] - before[1], kWalks) << threads << " threads";
    EXPECT_EQ(after[2] - before[2], 0) << threads << " threads";

    options.max_subproblems = unbounded.stats.subproblems;
    before = traffic();
    (void)DapplePlanner(model::ModelByName("GNMT-16"), topo::MakeConfigA(2), options).Plan();
    after = traffic();
    EXPECT_EQ(after[0] - before[0], 63) << threads << " threads, budgeted";
    EXPECT_EQ(after[0] - before[0] + after[1] - before[1], 2 * kWalks)
        << threads << " threads, budgeted";
    EXPECT_EQ(after[2] - before[2], 0) << threads << " threads, budgeted";
  }
}

TEST(Planner, SearchBudgetStopsAtTheSameCountAtEveryThreadCount) {
  const auto gnmt = model::MakeGnmt16();
  const auto cluster = topo::MakeConfigA(2);
  const PlanResult unbounded = DapplePlanner(gnmt, cluster, Opts(1024)).Plan();
  const long needed = unbounded.stats.subproblems;
  ASSERT_EQ(needed, 6353);
  for (int threads : {1, 8}) {
    PlannerOptions options = Opts(1024);
    options.num_threads = threads;
    // A budget of exactly the search's size fits, with the same plan.
    options.max_subproblems = needed;
    const PlanResult fits = DapplePlanner(gnmt, cluster, options).Plan();
    EXPECT_EQ(fits.plan.ToString(), unbounded.plan.ToString());
    EXPECT_EQ(DoubleBits(fits.estimate.latency), DoubleBits(unbounded.estimate.latency));
    // One less stops at the same point at every thread count, and neither
    // the recompute fallback nor the Session's retry searches again.
    options.max_subproblems = needed - 1;
    for (RecomputePolicy recompute : {RecomputePolicy::kOff, RecomputePolicy::kAuto}) {
      options.recompute = recompute;
      const std::int64_t retries =
          obs::MetricsRegistry::Global().counter("dapple.session.recompute_retries").value();
      try {
        (void)Session(gnmt, cluster).Plan(1024, options);
        FAIL() << "a search past its budget must throw";
      } catch (const SearchTooLarge& e) {
        EXPECT_EQ(e.subproblems(), needed);
        EXPECT_EQ(e.budget(), needed - 1);
        EXPECT_EQ(e.levels(), unbounded.stats.levels);
        EXPECT_EQ(e.frontier_peak(), unbounded.stats.frontier_peak);
        // The last subproblem sits on the last level, which has no split
        // point left: every candidate was already evaluated.
        EXPECT_EQ(e.candidates_evaluated(), unbounded.stats.candidates_evaluated);
      }
      EXPECT_EQ(obs::MetricsRegistry::Global()
                    .counter("dapple.session.recompute_retries")
                    .value(),
                retries);
    }
  }
}

TEST(Session, ReRankPicksTheSimulatedBestOfEveryAlternative) {
  // Session::Plan simulates every alternative the planner returns and keeps
  // the fastest, so its plan (after boundary refinement, which only ever
  // improves on the re-ranked one) simulates no slower than any of them,
  // and the ThreadPool fan-out picks the same plan at every thread count.
  const auto gnmt = model::MakeGnmt16();
  const auto cluster = topo::MakeConfigA(2);
  PlannerOptions vmin = Opts(1024);
  vmin.latency.schedule_kind = runtime::ScheduleKind::kVMin;
  PlannerOptions capped = Opts(1024);
  capped.recompute = RecomputePolicy::kAuto;
  capped.latency.memory_cap = 4_GiB;
  const std::pair<const char*, PlannerOptions> cases[] = {
      {"DAPPLE", Opts(1024)}, {"V-Min", vmin}, {"auto-4GiB", capped}};
  for (const auto& [label, options] : cases) {
    const runtime::BuildOptions build = runtime::BuildOptionsFor(options);
    auto simulate = [&](const ParallelPlan& plan) {
      const sim::SimResult result =
          runtime::PipelineExecutor(gnmt, cluster, plan, build).RunDetailed().result;
      return result.AnyOom() ? std::numeric_limits<TimeSec>::infinity() : result.makespan;
    };
    const PlanResult planned = DapplePlanner(gnmt, cluster, options).Plan();
    if (std::string(label) != "auto-4GiB") {
      EXPECT_EQ(planned.alternatives.size(), 9u) << label;
    }

    std::string serial;
    for (int threads : {1, 4}) {
      PlannerOptions threaded = options;
      threaded.num_threads = threads;
      const PlanResult chosen = Session(gnmt, cluster).Plan(1024, threaded);
      const TimeSec chosen_time = simulate(chosen.plan);
      ASSERT_TRUE(std::isfinite(chosen_time)) << label;
      for (const auto& [alternative, estimate] : planned.alternatives) {
        EXPECT_LE(chosen_time, simulate(alternative))
            << label << ": " << alternative.ToString() << " beats " << chosen.plan.ToString();
      }
      const std::string text = SerializePlan(chosen.plan);
      if (threads == 1) {
        serial = text;
      } else {
        EXPECT_EQ(text, serial) << label << " @ " << threads << " threads";
      }
    }
  }
}

TEST(PlannerOracle, TwelveGpuServersKeepTheFrontierOrder) {
  // With 12 GPUs per server a per-server count reaches 10, and a level's
  // nodes are expanded in the order of their count strings, where "10,"
  // sorts before "9,". The order decides latency ties: which of two
  // equal-TPL children keeps a frontier slot, so which devices later
  // placements start from, how many placements the policies dedup, and
  // which tied alternatives survive eviction. Sorting the counts
  // numerically instead changes the candidate count here.
  const auto m = MakeUniformSynthetic(4, 0.02, 0.04, 1_MiB, 40'000'000, 1);
  const topo::Cluster cluster("12x2", 2, 12, topo::DeviceSpec{}, topo::InterconnectSpec{});
  const PlanResult result = DapplePlanner(m, cluster, Opts(144)).Plan();
  auto render = [](const ParallelPlan& plan, const PlanEstimate& estimate) {
    std::string text;
    for (const StagePlan& stage : plan.stages) {
      text += std::to_string(stage.layer_end) + stage.devices.ToString() + " ";
    }
    return text + std::to_string(DoubleBits(estimate.latency)) + "\n";
  };
  std::string text = render(result.plan, result.estimate) +
                     std::to_string(result.stats.candidates_evaluated) + "\n";
  for (const auto& [plan, estimate] : result.alternatives) text += render(plan, estimate);
  // Winner, candidate count, then the alternatives (ties in input order).
  EXPECT_EQ(text,
            "2[G0-G11] 4[G12-G23] 4609723528520810304\n"
            "3095\n"
            "2[G0-G11] 4[G12-G23] 4609723528520810304\n"
            "2[G0-G10] 4[G11-G23] 4609769154624829087\n"
            "2[G0-G10] 3[G12-G17] 4[G11,G18,G19,G20,G21,G22,G23] 4609775577470787513\n"
            "2[G0-G10] 3[G11-G16] 4[G17-G23] 4609775577470787513\n"
            "1[G0-G5] 2[G12-G17] 3[G6-G11] 4[G18-G23] 4609994081565622855\n"
            "1[G0-G5] 2[G12-G17] 3[G6,G18,G7,G19,G8,G20] 4[G9,G10,G11,G21,G22,G23] 4610006741015930149\n"
            "1[G0-G6] 3[G12-G22] 4[G7,G8,G9,G10,G11,G23] 4610238474603727891\n"
            "2[G0-G10] 3[G12-G18] 4[G11,G19,G20,G21,G22,G23] 4610244355193563407\n"
            "4[G0-G23] 4610686639646076876\n");
}

TEST(PlanValidate, DuplicatedDeviceThrowsTheSameMessage) {
  const auto m = MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 1'000);
  ParallelPlan plan;
  plan.model = m.name();
  plan.stages.push_back(StagePlan{0, 2, DeviceSet({0, 3}), topo::PlacementPolicy::kFreshFirst,
                                  false});
  plan.stages.push_back(StagePlan{2, 4, DeviceSet({1, 3}), topo::PlacementPolicy::kFreshFirst,
                                  false});
  try {
    plan.Validate(m);
    FAIL() << "a device in two stages must not validate";
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::string tail = " — device G3 in two stages";
    ASSERT_GE(what.size(), tail.size()) << what;
    EXPECT_EQ(what.substr(what.size() - tail.size()), tail) << what;
  }
  // Device ids past one bitmap word are tracked too.
  plan.stages[0].devices = DeviceSet({5, 130});
  plan.stages[1].devices = DeviceSet({64, 130});
  EXPECT_THROW(plan.Validate(m), Error);
  plan.stages[1].devices = DeviceSet({64, 129});
  EXPECT_NO_THROW(plan.Validate(m));
}

}  // namespace
}  // namespace dapple::planner
