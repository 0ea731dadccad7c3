// End-to-end integration: Session facade over calibrated models and real
// hardware configs; planner estimates vs simulated runtime; cross-model
// sweeps matching the paper's qualitative Table V landscape.
#include <gtest/gtest.h>

#include "dapple/dapple.h"

namespace dapple {
namespace {

TEST(Session, QuickstartFlow) {
  Session session(model::MakeBert48(), topo::MakeConfigA(2));
  const auto profile = session.Profile();
  EXPECT_EQ(profile.model, "BERT-48");
  const auto planned = session.Plan(64);
  planned.plan.Validate(session.model());
  const auto report = session.Run(planned.plan, 64);
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_FALSE(report.oom);
  const auto direct = session.PlanAndRun(64);
  EXPECT_NEAR(direct.makespan, report.makespan, 1e-9);
}

TEST(Session, EstimatorTracksSimulatedRuntime) {
  // The analytic objective is an approximation (it ignores internal
  // bubbles) but must stay within a reasonable band of the simulated
  // truth, and never exceed it by much.
  Session session(model::MakeBert48(), topo::MakeConfigA(2));
  const auto planned = session.Plan(128);
  const auto report = session.Run(planned.plan, 128);
  EXPECT_LE(planned.estimate.latency, report.makespan * 1.05);
  EXPECT_GE(planned.estimate.latency, report.makespan * 0.5);
}

TEST(Session, HybridBeatsDataParallelWhereThePaperSaysSo) {
  // BERT-48 on all three configs: the best hybrid plan outperforms DP
  // with overlap (paper Fig. 12 g-i).
  const auto bert = model::MakeBert48();
  for (char config : {'A', 'B', 'C'}) {
    const auto cluster = config == 'A' ? topo::MakeConfigA(2) : topo::MakeConfig(config, 16);
    Session session(bert, cluster);
    const auto planned = session.Plan(64);
    const auto hybrid = session.Run(planned.plan, 64);
    const auto dp = planner::EstimateDataParallel(bert, cluster, 64,
                                                  planner::DataParallelVariant::kOverlap);
    ASSERT_TRUE(dp.feasible) << config;
    EXPECT_GT(hybrid.speedup, dp.speedup) << "config " << config;
  }
}

TEST(Session, ResnetPrefersDataParallelEverywhere) {
  // Table V row 1: ResNet-50 plans DP on all three configs.
  const auto resnet = model::MakeResnet50();
  for (char config : {'A', 'B', 'C'}) {
    const auto cluster = config == 'A' ? topo::MakeConfigA(2) : topo::MakeConfig(config, 16);
    Session session(resnet, cluster);
    const auto planned = session.Plan(2048);
    EXPECT_TRUE(planned.plan.IsDataParallel()) << "config " << config;
  }
}

TEST(Session, GnmtPipelinesDeepenAsNetworkSlows) {
  // Table V trend: GNMT-16 moves from a wide 2-stage hybrid on Config-A
  // to deeper, narrower pipelines on the slow flat Config-C (the paper's
  // extreme point is a fully straight pipeline; under our cost model the
  // optimum stops at a deep hybrid -- see EXPERIMENTS.md deviations).
  const auto gnmt = model::MakeGnmt16();
  Session fast(gnmt, topo::MakeConfigA(2));
  Session slow(gnmt, topo::MakeConfigC(16));
  const auto plan_fast = fast.Plan(1024);
  const auto plan_slow = slow.Plan(1024);
  EXPECT_GT(plan_slow.plan.num_stages(), plan_fast.plan.num_stages());
  auto max_repl = [](const planner::ParallelPlan& p) {
    int r = 0;
    for (const auto& s : p.stages) r = std::max(r, s.replication());
    return r;
  };
  EXPECT_LT(max_repl(plan_slow.plan), max_repl(plan_fast.plan));

  // And the slow-network hybrid clearly beats data parallelism there.
  const auto hybrid = slow.Run(plan_slow.plan, 1024);
  const auto dp = planner::EstimateDataParallel(gnmt, topo::MakeConfigC(16), 1024,
                                                planner::DataParallelVariant::kOverlap);
  ASSERT_TRUE(dp.feasible);
  EXPECT_GT(hybrid.speedup, 1.1 * dp.speedup);
}

TEST(Session, GnmtConfigAMatchesPaperExactly) {
  // Table V: GNMT-16 on 2x8 Config-A plans the 8:8 two-stage pipeline
  // with the uneven 9:7 split (encoder+1 : decoder-1). The simulation-
  // verified planner reproduces it exactly.
  Session session(model::MakeGnmt16(), topo::MakeConfigA(2));
  const auto planned = session.Plan(1024);
  ASSERT_EQ(planned.plan.num_stages(), 2);
  EXPECT_EQ(planned.plan.stages[0].replication(), 8);
  EXPECT_EQ(planned.plan.stages[1].replication(), 8);
  EXPECT_EQ(planned.plan.stages[0].num_layers(), 9);
  EXPECT_EQ(planned.plan.stages[1].num_layers(), 7);
}

TEST(Session, AmoebaNetRunsWherePureDpCannot) {
  Session session(model::MakeAmoebaNet36(), topo::MakeConfigA(2));
  const auto planned = session.Plan(128);
  const auto report = session.Run(planned.plan, 128);
  EXPECT_FALSE(report.oom);
  EXPECT_GT(report.speedup, 4.0);
}

TEST(Session, WeakScalingSupportsLargerBertOnLongerPipelines) {
  // Table VIII: pipeline depth 2/4/8 supports ~106/215/428 encoder layers
  // on 16GB devices with re-computation.
  struct Case {
    int layers;
    int stages;
  };
  for (const Case c : {Case{106, 2}, Case{215, 4}, Case{428, 8}}) {
    const auto bert = model::MakeBert(c.layers);
    const auto cluster = topo::MakeConfigA(c.stages / 8 + 1);
    planner::ParallelPlan plan;
    plan.model = bert.name();
    const int per = c.layers / c.stages;
    for (int s = 0; s < c.stages; ++s) {
      planner::StagePlan sp;
      sp.layer_begin = s * per;
      sp.layer_end = s + 1 == c.stages ? c.layers : (s + 1) * per;
      sp.devices = topo::DeviceSet::Range(s, 1);
      sp.recompute = true;
      plan.stages.push_back(sp);
    }
    runtime::BuildOptions o;
    o.global_batch_size = 8;
    o.micro_batch_size = 2;
    Session session(bert, cluster);
    const auto report = session.Run(plan, 8, o);
    EXPECT_FALSE(report.oom) << "BERT-" << c.layers << " on " << c.stages << " stages";
  }
}

TEST(Session, StrongScalingImprovesWithMoreDevices) {
  // Fig. 14 trend: speedup grows with the device count for BERT-48.
  const auto bert = model::MakeBert48();
  double prev = 0.0;
  for (int servers : {1, 2}) {
    Session session(bert, topo::MakeConfigA(servers));
    const auto report = session.PlanAndRun(128);
    EXPECT_GT(report.speedup, prev);
    prev = report.speedup;
  }
}

TEST(Session, DeterministicEndToEnd) {
  Session session(model::MakeXlnet36(), topo::MakeConfigA(2));
  const auto r1 = session.PlanAndRun(128);
  const auto r2 = session.PlanAndRun(128);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.max_peak_memory, r2.max_peak_memory);
}

}  // namespace
}  // namespace dapple

// -- appended tests -----------------------------------------------------

namespace dapple {
namespace {

TEST(Session, RecomputeFallbackWhenNothingElseFits) {
  // BERT-100 on two 16GB devices: without re-computation no plan fits
  // (50 layers/stage of weights + full activation stash exceeds 16GB);
  // with the Table VIII fallback (per-layer checkpoints) it fits easily.
  const auto bert = model::MakeBert(100);
  const auto cluster = topo::MakeConfigB(2);
  Session session(bert, cluster);
  planner::PlannerOptions opts;
  opts.max_stages = 2;
  const auto planned = session.Plan(8, opts);
  EXPECT_TRUE(planned.estimate.feasible);
  planner::ParallelPlan plan = planned.plan;
  for (planner::StagePlan& s : plan.stages) s.recompute = true;
  runtime::BuildOptions run;
  run.global_batch_size = 8;
  const auto report = session.Run(plan, 8, run);
  EXPECT_FALSE(report.oom);
}

TEST(Session, PlansForTheRequestedScheduleFamily) {
  // The re-rank and refinement run under the requested family: simulated
  // there, the Session's plan is no slower than any of the planner's own
  // alternatives and never OOMs.
  struct Case {
    const char* model;
    char config;
    int servers;
    long gbs;
    runtime::ScheduleKind kind;
  };
  for (const Case c : {Case{"GNMT-16", 'A', 2, 1024, runtime::ScheduleKind::kVMin},
                       Case{"BERT-48", 'C', 16, 64, runtime::ScheduleKind::kGPipe},
                       Case{"XLNet-36", 'B', 16, 128, runtime::ScheduleKind::kVMin}}) {
    const Session session(model::ModelByName(c.model), topo::MakeConfig(c.config, c.servers));
    planner::PlannerOptions options;
    options.global_batch_size = c.gbs;
    options.latency.schedule_kind = c.kind;
    auto simulate = [&](const planner::ParallelPlan& plan) {
      return session.Run(plan, c.gbs, runtime::BuildOptionsFor(options));
    };
    const obs::IterationReport chosen = simulate(session.Plan(c.gbs, options).plan);
    EXPECT_FALSE(chosen.oom) << c.model;
    for (const auto& [plan, estimate] :
         planner::DapplePlanner(session.model(), session.cluster(), options).Plan().alternatives) {
      const obs::IterationReport alternative = simulate(plan);
      if (!alternative.oom) {
        EXPECT_LE(chosen.makespan, alternative.makespan) << plan.ToString();
      }
    }
  }
}

TEST(Session, PlanSurvivesSerializationRoundTrip) {
  Session session(model::MakeBert48(), topo::MakeConfigA(2));
  const auto planned = session.Plan(64);
  const auto restored = planner::ParsePlan(planner::SerializePlan(planned.plan));
  const auto a = session.Run(planned.plan, 64);
  const auto b = session.Run(restored, 64);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace dapple
