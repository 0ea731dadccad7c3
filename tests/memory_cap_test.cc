// Memory-constrained planning: the kRecomputeOverhead calibration shared by
// the estimator and the simulator (0.4 x forward == 20% of a 2x-forward
// backward pass, the paper's "~20% extra overhead" for recomputation), the
// strict `peak > cap` OOM boundary (peak == cap is feasible) pinned at the
// cap and one byte either side across the estimator, the builder's pools
// and the validator, the planner's cap rejection, and the auto-recompute
// fit search (per-stage StagePlan::recompute flags, plan_io round-trip).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/validator.h"
#include "common/error.h"
#include "common/units.h"
#include "dapple/dapple.h"
#include "model/zoo.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "planner/dp_planner.h"
#include "planner/latency.h"
#include "planner/plan_io.h"
#include "runtime/graph_builder.h"
#include "runtime/schedule.h"
#include "sim/engine.h"
#include "topo/cluster.h"

namespace dapple {
namespace {

using model::MakeUniformSynthetic;
using model::ModelProfile;
using planner::LatencyEstimator;
using planner::LatencyOptions;
using planner::ParallelPlan;
using planner::PlanEstimate;
using planner::StagePlan;
using topo::Cluster;
using topo::DeviceSet;

Cluster FastCluster(int servers, int gpus, topo::DeviceSpec device = {}) {
  topo::InterconnectSpec net;
  net.intra_server_bandwidth = GBps(1e9);
  net.inter_server_bandwidth = GBps(1e9);
  net.intra_server_latency = 0.0;
  net.inter_server_latency = 0.0;
  return Cluster("fast", servers, gpus, device, net);
}

ParallelPlan SingleStagePlan(const ModelProfile& m) {
  ParallelPlan plan;
  plan.model = m.name();
  StagePlan s;
  s.layer_begin = 0;
  s.layer_end = m.num_layers();
  s.devices = DeviceSet::Range(0, 1);
  plan.stages = {s};
  return plan;
}

ParallelPlan TwoStagePlan(const ModelProfile& m) {
  ParallelPlan plan;
  plan.model = m.name();
  StagePlan s0;
  s0.layer_begin = 0;
  s0.layer_end = m.num_layers() / 2;
  s0.devices = DeviceSet::Range(0, 1);
  StagePlan s1;
  s1.layer_begin = m.num_layers() / 2;
  s1.layer_end = m.num_layers();
  s1.devices = DeviceSet::Range(1, 1);
  plan.stages = {s0, s1};
  return plan;
}

// ---------------------------------------------------------------------------
// Satellite 1: the runtime::kRecomputeOverhead calibration. The docs
// promise "~20% extra backward overhead"; with backward ~ 2x forward across
// the zoo profiles that is 0.4 x forward. Estimator and simulator both read
// the one constant, so capped plans tuned by one simulate the same under
// the other.

TEST(RecomputeOverhead, ZooBackwardIsAboutTwiceForward) {
  // The 0.4-of-forward calibration equals 20%-of-backward only while the
  // calibrated profiles keep backward ~ 2x forward; pin that premise.
  for (const ModelProfile& m : model::AllBenchmarkModels()) {
    double fwd = 0.0, bwd = 0.0;
    for (int l = 0; l < m.num_layers(); ++l) {
      fwd += m.layer(l).forward_time;
      bwd += m.layer(l).backward_time;
    }
    EXPECT_NEAR(bwd / fwd, 2.0, 0.35) << m.name();
  }
}

TEST(RecomputeOverhead, SimulatedRecomputeAddsTwentyPercentOfBackward) {
  // Single stage, one device, free comm, no params: the iteration is
  // exactly M x (F + B) without recompute and M x (F + B + 0.4 F) with it.
  // With B = 2F the added time is 20% of the backward phase.
  const ModelProfile m = MakeUniformSynthetic(4, 0.010, 0.020, 0, 0);
  const Cluster cluster = FastCluster(1, 1);
  const ParallelPlan plan = SingleStagePlan(m);

  runtime::BuildOptions options;
  options.global_batch_size = 8;
  options.enforce_memory_capacity = false;
  auto makespan = [&](bool recompute) {
    ParallelPlan p = plan;
    p.stages[0].recompute = recompute;
    const runtime::BuiltPipeline built =
        runtime::GraphBuilder(m, cluster, p, options).Build();
    return sim::Engine::Run(built.graph, built.engine_options).makespan;
  };
  const TimeSec off = makespan(false);
  const TimeSec on = makespan(true);
  const TimeSec forward_total = 8 * 4 * 0.010;
  const TimeSec backward_total = 8 * 4 * 0.020;
  EXPECT_NEAR(on - off, 0.4 * forward_total, 1e-9);
  EXPECT_NEAR(on - off, 0.2 * backward_total, 1e-9);
}

TEST(RecomputeOverhead, EstimatorMatchesSimulatorUnderRecompute) {
  const ModelProfile m = MakeUniformSynthetic(4, 0.010, 0.020, 0, 0);
  const Cluster cluster = FastCluster(1, 1);
  ParallelPlan plan = SingleStagePlan(m);
  plan.stages[0].recompute = true;

  LatencyOptions lo;
  lo.check_memory = false;
  const PlanEstimate e = LatencyEstimator(m, cluster, lo).Estimate(plan, 8);

  runtime::BuildOptions o;
  o.global_batch_size = 8;
  o.enforce_memory_capacity = false;
  const runtime::BuiltPipeline built =
      runtime::GraphBuilder(m, cluster, plan, o).Build();
  const sim::SimResult r = sim::Engine::Run(built.graph, built.engine_options);
  EXPECT_NEAR(e.latency, r.makespan, 1e-9);
}

// ---------------------------------------------------------------------------
// Satellite 2: the OOM boundary is strict `peak > cap` everywhere — a plan
// whose peak lands exactly on the cap is feasible, one byte over is not.

TEST(MemoryCapBoundary, EstimatorFeasibleAtCapInfeasibleOneByteUnder) {
  const ModelProfile m = MakeUniformSynthetic(4, 0.010, 0.020, 1_MiB, 1'000'000);
  const Cluster cluster = FastCluster(1, 1);
  const ParallelPlan plan = SingleStagePlan(m);

  LatencyOptions lo;
  const Bytes peak = LatencyEstimator(m, cluster, lo).Estimate(plan, 8).max_peak_memory;
  ASSERT_GT(peak, 0u);

  auto estimate_at = [&](Bytes cap) {
    LatencyOptions capped = lo;
    capped.memory_cap = cap;
    return LatencyEstimator(m, cluster, capped).Estimate(plan, 8);
  };
  const PlanEstimate at_cap = estimate_at(peak);
  EXPECT_TRUE(at_cap.feasible);
  EXPECT_FALSE(at_cap.memory_limited);
  EXPECT_EQ(at_cap.memory_capacity, peak);

  const PlanEstimate under = estimate_at(peak - 1);
  EXPECT_FALSE(under.feasible);
  EXPECT_TRUE(under.memory_limited);
  EXPECT_NE(under.infeasible_reason.find("memory cap"), std::string::npos);

  EXPECT_TRUE(estimate_at(peak + 1).feasible);
}

TEST(MemoryCapBoundary, BuilderPoolsAndValidatorAgreeAtTheBoundary) {
  // GPipe is deliberately un-throttled, so the builder cannot dodge a too
  // tight cap by shrinking warmup depths: the simulated peak is what it is,
  // and the pool's strict `peak > capacity` boundary is observable.
  const ModelProfile m = MakeUniformSynthetic(4, 0.010, 0.020, 1_MiB, 1'000'000);
  const Cluster cluster = FastCluster(1, 1);
  const ParallelPlan plan = SingleStagePlan(m);

  runtime::BuildOptions base;
  base.global_batch_size = 8;
  base.schedule.kind = runtime::ScheduleKind::kGPipe;
  base.enforce_memory_capacity = false;
  const runtime::BuiltPipeline uncapped =
      runtime::GraphBuilder(m, cluster, plan, base).Build();
  const Bytes peak =
      sim::Engine::Run(uncapped.graph, uncapped.engine_options).MaxPeakMemory();
  ASSERT_GT(peak, 0u);

  auto run_at = [&](Bytes cap) {
    runtime::BuildOptions o = base;
    o.enforce_memory_capacity = true;
    o.memory_cap = cap;
    const runtime::BuiltPipeline built =
        runtime::GraphBuilder(m, cluster, plan, o).Build();
    for (Bytes capacity : built.engine_options.pool_capacities) {
      EXPECT_EQ(capacity, cap);
    }
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    // The validator's oom-flag invariant re-derives the same strict
    // boundary from the recorded peaks; it must hold on both sides.
    check::ScheduleValidator validator(plan, o);
    EXPECT_TRUE(validator.Validate(built, result).ok()) << "cap=" << cap;
    return result.AnyOom();
  };
  EXPECT_FALSE(run_at(peak)) << "peak == cap must be feasible";
  EXPECT_TRUE(run_at(peak - 1)) << "one byte under the peak must OOM";
  EXPECT_FALSE(run_at(peak + 1));
}

// ---------------------------------------------------------------------------
// Tentpole: the DP search rejects placements over the cap, and the
// kAuto policy turns recompute on stage-by-stage until the plan fits.

TEST(MemoryCapPlanner, CapRejectsPlacementsAndStatsRecordIt) {
  const ModelProfile m = MakeUniformSynthetic(8, 0.010, 0.020, 8_MiB, 1'000'000);
  const Cluster cluster = FastCluster(1, 2);

  planner::PlannerOptions po;
  po.global_batch_size = 8;
  po.num_threads = 1;
  const planner::PlanResult uncapped = planner::DapplePlanner(m, cluster, po).Plan();
  const Bytes peak = uncapped.estimate.max_peak_memory;
  ASSERT_GT(peak, 0u);
  EXPECT_EQ(uncapped.stats.memory_cap, 0u);

  po.latency.memory_cap = peak;
  const planner::PlanResult capped = planner::DapplePlanner(m, cluster, po).Plan();
  EXPECT_EQ(capped.stats.memory_cap, peak);
  EXPECT_LE(capped.estimate.max_peak_memory, peak);
  EXPECT_TRUE(capped.estimate.feasible);
}

TEST(MemoryCapPlanner, InfeasibleCapThrowsInsteadOfEmittingAnOomPlan) {
  const ModelProfile m = MakeUniformSynthetic(8, 0.010, 0.020, 8_MiB, 1'000'000);
  const Cluster cluster = FastCluster(1, 2);
  planner::PlannerOptions po;
  po.global_batch_size = 8;
  po.num_threads = 1;
  po.latency.memory_cap = 1;  // one byte: nothing can fit
  EXPECT_THROW(planner::DapplePlanner(m, cluster, po).Plan(), planner::NoFeasiblePlan);
  po.recompute = planner::RecomputePolicy::kAuto;
  EXPECT_THROW(planner::DapplePlanner(m, cluster, po).Plan(), planner::NoFeasiblePlan);
}

TEST(MemoryCapPlanner, AutoRecomputeFitsWherePlainPlanningCannot) {
  // Large activations, small weights, ONE device: the only placement is a
  // single stage, so the search cannot dodge the cap with a different
  // split — a cap between the checkpointed and the full peak cleanly
  // separates the two policies.
  const ModelProfile m = MakeUniformSynthetic(8, 0.010, 0.020, 32_MiB, 1'000);
  const Cluster cluster = FastCluster(1, 1);

  planner::PlannerOptions po;
  po.global_batch_size = 8;
  po.num_threads = 1;
  po.latency.check_memory = false;
  const Bytes uncapped_peak =
      planner::DapplePlanner(m, cluster, po).Plan().estimate.max_peak_memory;

  planner::PlannerOptions all = po;
  all.latency.check_memory = true;
  all.recompute = planner::RecomputePolicy::kAll;
  const Bytes recompute_peak =
      planner::DapplePlanner(m, cluster, all).Plan().estimate.max_peak_memory;
  ASSERT_LT(recompute_peak, uncapped_peak);

  const Bytes cap = (recompute_peak + uncapped_peak) / 2;
  planner::PlannerOptions plain = po;
  plain.latency.check_memory = true;
  plain.latency.memory_cap = cap;
  EXPECT_THROW(planner::DapplePlanner(m, cluster, plain).Plan(), Error);

  planner::PlannerOptions fit = plain;
  fit.recompute = planner::RecomputePolicy::kAuto;
  const planner::PlanResult result = planner::DapplePlanner(m, cluster, fit).Plan();
  EXPECT_LE(result.estimate.max_peak_memory, cap);
  int flagged = 0;
  for (const StagePlan& s : result.plan.stages) flagged += s.recompute ? 1 : 0;
  EXPECT_GT(flagged, 0) << "the fit search must have turned recompute on somewhere";
  EXPECT_EQ(result.stats.recompute_stages, flagged);
  EXPECT_GT(result.stats.fit_probes, 0);
}

TEST(MemoryCapPlanner, AutoWithoutPressureLeavesRecomputeOff) {
  const ModelProfile m = MakeUniformSynthetic(8, 0.010, 0.020, 1_MiB, 1'000);
  const Cluster cluster = FastCluster(1, 2);
  planner::PlannerOptions po;
  po.global_batch_size = 8;
  po.num_threads = 1;
  po.recompute = planner::RecomputePolicy::kAuto;
  const planner::PlanResult result = planner::DapplePlanner(m, cluster, po).Plan();
  for (const StagePlan& s : result.plan.stages) EXPECT_FALSE(s.recompute);
  EXPECT_EQ(result.stats.recompute_stages, 0);
}

TEST(MemoryCapPlanner, AllRecomputeFlagsEveryStage) {
  // kAll flags every stage of the plan and of every alternative; the flags
  // are the whole decision, so the report of its run says every stage
  // recomputed.
  const ModelProfile m = MakeUniformSynthetic(8, 0.010, 0.020, 4_MiB, 1'000'000);
  const Cluster cluster = FastCluster(1, 2);
  planner::PlannerOptions po;
  po.global_batch_size = 8;
  po.recompute = planner::RecomputePolicy::kAll;
  const planner::PlanResult result = planner::DapplePlanner(m, cluster, po).Plan();
  for (const auto& [plan, estimate] : result.alternatives) {
    for (const StagePlan& s : plan.stages) EXPECT_TRUE(s.recompute) << plan.ToString();
  }
  for (const StagePlan& s : result.plan.stages) EXPECT_TRUE(s.recompute);
  EXPECT_EQ(result.stats.recompute_stages, result.plan.num_stages());

  const obs::IterationReport report =
      obs::RunIteration(m, cluster, result.plan, runtime::BuildOptionsFor(po));
  EXPECT_TRUE(report.recompute);
  EXPECT_EQ(report.recompute_stages, result.plan.num_stages());
}

TEST(MemoryCapPlanner, BuilderHonorsPerStageFlags) {
  const ModelProfile m = MakeUniformSynthetic(4, 0.010, 0.020, 1_MiB, 0);
  const Cluster cluster = FastCluster(1, 2);
  ParallelPlan plan = TwoStagePlan(m);
  plan.stages[1].recompute = true;

  runtime::BuildOptions o;
  o.global_batch_size = 8;
  o.enforce_memory_capacity = false;
  const runtime::BuiltPipeline built =
      runtime::GraphBuilder(m, cluster, plan, o).Build();
  ASSERT_EQ(built.stage_recompute.size(), 2u);
  EXPECT_EQ(built.stage_recompute[0], 0);
  EXPECT_EQ(built.stage_recompute[1], 1);
  // One of two stages recomputing is not "recompute" in the report.
  const obs::IterationReport report = obs::RunIteration(m, cluster, plan, o);
  EXPECT_FALSE(report.recompute);
  EXPECT_EQ(report.recompute_stages, 1);
}

TEST(MemoryCapPlanner, PlanIoRoundTripsRecomputeFlags) {
  const ModelProfile m = MakeUniformSynthetic(4, 0.010, 0.020, 1_MiB, 0);
  ParallelPlan plan = TwoStagePlan(m);
  plan.stages[1].recompute = true;
  const ParallelPlan parsed = planner::ParsePlan(planner::SerializePlan(plan));
  ASSERT_EQ(parsed.stages.size(), 2u);
  EXPECT_FALSE(parsed.stages[0].recompute);
  EXPECT_TRUE(parsed.stages[1].recompute);
  EXPECT_EQ(planner::SerializePlan(parsed), planner::SerializePlan(plan));
}

TEST(MemoryCapPlanner, RecomputePolicyParsesAndRejects) {
  EXPECT_EQ(planner::ParseRecomputePolicy("off"), planner::RecomputePolicy::kOff);
  EXPECT_EQ(planner::ParseRecomputePolicy("all"), planner::RecomputePolicy::kAll);
  EXPECT_EQ(planner::ParseRecomputePolicy("on"), planner::RecomputePolicy::kAll);
  EXPECT_EQ(planner::ParseRecomputePolicy("auto"), planner::RecomputePolicy::kAuto);
  EXPECT_EQ(planner::ParseRecomputePolicy("AUTO"), planner::RecomputePolicy::kAuto);
  EXPECT_THROW(planner::ParseRecomputePolicy("sometimes"), Error);
}

/// The message of the NoFeasiblePlan `plan` throws ("" when it returns).
template <typename PlanFn>
std::string PlanError(PlanFn&& plan) {
  try {
    plan();
  } catch (const planner::NoFeasiblePlan& e) {
    return e.what();
  }
  return "";
}

TEST(MemoryCapPlanner, NoFeasiblePlanMessageNamesTheLastRejectedPeak) {
  // Device memory: AmoebaNet-36 does not fit one device.
  planner::PlannerOptions po;
  po.global_batch_size = 128;
  po.num_threads = 1;
  const ModelProfile amoeba = model::ModelByName("AmoebaNet-36");
  EXPECT_EQ(PlanError([&] { planner::DapplePlanner(amoeba, FastCluster(1, 1), po).Plan(); }),
            "no feasible plan for AmoebaNet-36 on fast (1 devices): peak memory 18.9GB "
            "exceeds device 16.0GB");
  // A cap no plan fits even with recompute on every stage.
  po.recompute = planner::RecomputePolicy::kAll;
  po.latency.memory_cap = 4_GiB;
  EXPECT_EQ(PlanError([&] { planner::DapplePlanner(amoeba, topo::MakeConfigA(2), po).Plan(); }),
            "no feasible plan for AmoebaNet-36 on Config-A (16 devices) under memory cap "
            "4.0GB with recompute: peak memory 10.7GB exceeds memory cap 4.0GB");
}

TEST(MemoryCapPlanner, SessionCountsRecomputeStagesOfTheReturnedPlan) {
  // The re-rank returns a 3-stage alternative here, not the planner's
  // 4-stage winner; the stat must describe the plan that came back.
  const Session session(model::ModelByName("BERT-48"), topo::MakeConfigC(16));
  planner::PlannerOptions po;
  po.recompute = planner::RecomputePolicy::kAuto;
  po.latency.memory_cap = 4_GiB;
  const planner::PlanResult result = session.Plan(64, po);
  int flagged = 0;
  for (const StagePlan& s : result.plan.stages) flagged += s.recompute ? 1 : 0;
  EXPECT_GT(flagged, 0);
  EXPECT_EQ(result.stats.recompute_stages, flagged) << result.plan.ToString();
}

// Large activations, small weights, one device (so one stage): a cap
// halfway between the all-recompute peak and the plain peak fits only with
// recomputation.
struct RecomputeOnlyFit {
  ModelProfile model = MakeUniformSynthetic(8, 0.010, 0.020, 32_MiB, 1'000);
  Cluster cluster = FastCluster(1, 1);
  Bytes cap = 0;

  RecomputeOnlyFit() {
    planner::PlannerOptions po = Options(planner::RecomputePolicy::kOff);
    po.latency.check_memory = false;
    const Bytes plain =
        planner::DapplePlanner(model, cluster, po).Plan().estimate.max_peak_memory;
    po.recompute = planner::RecomputePolicy::kAll;
    const Bytes recompute =
        planner::DapplePlanner(model, cluster, po).Plan().estimate.max_peak_memory;
    cap = (recompute + plain) / 2;
  }
  planner::PlannerOptions Options(planner::RecomputePolicy recompute) const {
    planner::PlannerOptions po;
    po.global_batch_size = 8;
    po.num_threads = 1;
    po.recompute = recompute;
    po.latency.memory_cap = cap;
    return po;
  }
};

std::int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().counter(name).value();
}

TEST(MemoryCapPlanner, CapCountersCountRecomputeUnderAllAndAuto) {
  // Plan() adds the returned plan's recompute stages and fit probes to the
  // planner.cap.* counters, under either policy that recomputes.
  const RecomputeOnlyFit fit;
  for (const planner::RecomputePolicy policy :
       {planner::RecomputePolicy::kAll, planner::RecomputePolicy::kAuto}) {
    SCOPED_TRACE(planner::ToString(policy));
    const std::int64_t stages = CounterValue("planner.cap.recompute_stages");
    const std::int64_t probes = CounterValue("planner.cap.fit_probes");
    const planner::PlanResult result =
        planner::DapplePlanner(fit.model, fit.cluster, fit.Options(policy)).Plan();
    EXPECT_GT(result.stats.recompute_stages, 0);
    EXPECT_EQ(CounterValue("planner.cap.recompute_stages") - stages,
              result.stats.recompute_stages);
    EXPECT_EQ(CounterValue("planner.cap.fit_probes") - probes, result.stats.fit_probes);
    if (policy == planner::RecomputePolicy::kAuto) {
      EXPECT_GT(result.stats.fit_probes, 0);
    }
  }
}

TEST(MemoryCapPlanner, AutoCountsItsRecomputeFallbackWithOrWithoutACap) {
  // kAuto re-searches with recomputation when nothing fits without it, and
  // counts that fallback whether the limit is a cap or the device's own
  // memory; a plan that fits as is falls back nowhere.
  const RecomputeOnlyFit fit;
  topo::DeviceSpec small;
  small.memory = fit.cap;
  const Cluster tight = FastCluster(1, 1, small);
  planner::PlannerOptions uncapped = fit.Options(planner::RecomputePolicy::kAuto);
  uncapped.latency.memory_cap = 0;

  const std::int64_t before = CounterValue("planner.recompute_fallbacks");
  const planner::PlanResult result = planner::DapplePlanner(fit.model, tight, uncapped).Plan();
  EXPECT_GT(result.stats.recompute_stages, 0);
  EXPECT_LE(result.estimate.max_peak_memory, fit.cap);
  EXPECT_EQ(CounterValue("planner.recompute_fallbacks") - before, 1);

  planner::DapplePlanner(fit.model, fit.cluster, fit.Options(planner::RecomputePolicy::kAuto))
      .Plan();
  EXPECT_EQ(CounterValue("planner.recompute_fallbacks") - before, 2);

  planner::DapplePlanner(fit.model, fit.cluster, uncapped).Plan();
  planner::DapplePlanner(fit.model, tight, fit.Options(planner::RecomputePolicy::kAll)).Plan();
  EXPECT_EQ(CounterValue("planner.recompute_fallbacks") - before, 2);
}

TEST(MemoryCapPlanner, SessionCountsItsRecomputeRetry) {
  // Without recomputation nothing fits the cap, so the Session re-plans
  // once with recomputation on every stage; a plan that fits retries
  // nothing.
  const RecomputeOnlyFit fit;
  const Session session(fit.model, fit.cluster);
  const std::int64_t before = CounterValue("dapple.session.recompute_retries");
  const planner::PlanResult result =
      session.Plan(8, fit.Options(planner::RecomputePolicy::kOff));
  EXPECT_EQ(CounterValue("dapple.session.recompute_retries") - before, 1);
  EXPECT_LE(result.estimate.max_peak_memory, fit.cap);
  planner::PlannerOptions roomy = fit.Options(planner::RecomputePolicy::kOff);
  roomy.latency.memory_cap = 0;
  session.Plan(8, roomy);
  EXPECT_EQ(CounterValue("dapple.session.recompute_retries") - before, 1);
}

TEST(MemoryCapPlanner, SessionRetriesOnlyInfeasibility) {
  // A request the planner rejects as invalid is not a plan that failed to
  // fit: the Session passes the error on and counts no recompute retry.
  const RecomputeOnlyFit fit;
  const Session session(fit.model, fit.cluster);
  const std::int64_t before = CounterValue("dapple.session.recompute_retries");
  auto expect_invalid = [&](long gbs, const planner::PlannerOptions& options) {
    try {
      session.Plan(gbs, options);
      ADD_FAILURE() << "an invalid request planned";
    } catch (const planner::NoFeasiblePlan& e) {
      ADD_FAILURE() << "an invalid request read as infeasible: " << e.what();
    } catch (const Error&) {
    }
  };
  planner::PlannerOptions negative_threads = fit.Options(planner::RecomputePolicy::kOff);
  negative_threads.num_threads = -1;
  expect_invalid(0, fit.Options(planner::RecomputePolicy::kOff));  // no global batch
  expect_invalid(8, negative_threads);
  EXPECT_EQ(CounterValue("dapple.session.recompute_retries") - before, 0);
}

// ---------------------------------------------------------------------------
// ParseBytes: the CLI's cap argument.

TEST(ParseBytes, AcceptsPlainAndSuffixedSizes) {
  EXPECT_EQ(ParseBytes("123"), 123u);
  EXPECT_EQ(ParseBytes("512KiB"), 512u * 1024u);
  EXPECT_EQ(ParseBytes("512K"), 512u * 1024u);
  EXPECT_EQ(ParseBytes("2MiB"), 2_MiB);
  EXPECT_EQ(ParseBytes("2mb"), 2_MiB);
  EXPECT_EQ(ParseBytes("1.5GiB"), 1_GiB + 512_MiB);
  EXPECT_EQ(ParseBytes("2TiB"), 2048_GiB);
  EXPECT_EQ(ParseBytes("0"), 0u);
}

TEST(ParseBytes, RejectsMalformedInput) {
  EXPECT_THROW(ParseBytes(""), Error);
  EXPECT_THROW(ParseBytes("lots"), Error);
  EXPECT_THROW(ParseBytes("-1GiB"), Error);
  EXPECT_THROW(ParseBytes("12XiB"), Error);
}

}  // namespace
}  // namespace dapple
