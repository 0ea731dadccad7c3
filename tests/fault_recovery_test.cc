// Fault recovery subsystem (fault/degrade.h + fault/recovery.h): cluster
// state snapshots, degraded-cluster construction, plan remapping, residual
// speed profiles, and the three recovery policies end to end. The headline
// acceptance case lives here at unit scale: on a persistent straggler the
// elastic replan recovers measurably more goodput than the synchronous
// stall baseline, and every pipeline the experiments build passes the full
// ScheduleValidator invariant set.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "check/validator.h"
#include "common/error.h"
#include "common/units.h"
#include "fault/degrade.h"
#include "fault/recovery.h"
#include "fault/report.h"
#include "fault/script.h"
#include "model/zoo.h"
#include "obs/metrics.h"
#include "planner/dp_planner.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple::fault {
namespace {

model::ModelProfile EightLayerModel() {
  // Exact-representable layer times keep every simulated timestamp (and the
  // golden-style JSON determinism assertions below) platform-independent.
  return model::MakeUniformSynthetic(8, 0.002, 0.004, 1_MiB, 1'000'000);
}

planner::ParallelPlan TwoStagePlan(const model::ModelProfile& m, int replicas_per_stage) {
  planner::ParallelPlan plan;
  plan.model = m.name();
  plan.stages.push_back({0, 4, topo::DeviceSet::Range(0, replicas_per_stage)});
  plan.stages.push_back({4, 8, topo::DeviceSet::Range(replicas_per_stage, replicas_per_stage)});
  return plan;
}

FaultOptions FastOptions(long global_batch_size) {
  FaultOptions options;
  options.build.global_batch_size = global_batch_size;
  options.planner.keep_alternatives = 0;
  options.horizon = 10.0;
  return options;
}

// --- ClusterState / StateAt ------------------------------------------------

TEST(FaultStateTest, StateAtComposesWindowsAndKeepsCrashesPermanent) {
  const topo::Cluster cluster = topo::MakeConfigB(2);
  const FaultScript script = ParseFaultScript(
      "slowdown device=0 start=1 end=6 mult=0.5\n"
      "slowdown server=0 start=2 end=4 mult=0.8\n"
      "crash device=1 at=5\n");

  const ClusterState healthy = StateAt(FaultScript{}, cluster, 0.0);
  EXPECT_EQ(StateAt(script, cluster, 0.5), healthy);

  // Both windows active: device- and server-targeted slowdowns compose
  // multiplicatively into the server's control-plane multiplier.
  const ClusterState mid = StateAt(script, cluster, 3.0);
  EXPECT_DOUBLE_EQ(mid.server_compute[0], 0.4);
  EXPECT_EQ(mid.device_dead, healthy.device_dead);
  EXPECT_NE(mid, healthy);

  // Windows expire; the crash never does.
  const ClusterState late = StateAt(script, cluster, 100.0);
  EXPECT_DOUBLE_EQ(late.server_compute[0], 1.0);
  std::vector<bool> dead = healthy.device_dead;
  dead[1] = true;
  EXPECT_EQ(late.device_dead, dead);
  EXPECT_NE(mid, late);
}

// --- MakeDegradedCluster ---------------------------------------------------

TEST(FaultDegradeTest, DeadDeviceDrainsItsServerAndIdsStayDense) {
  const topo::Cluster cluster = topo::MakeConfigB(3);
  ClusterState state = StateAt(FaultScript{}, cluster, 0.0);
  state.device_dead[1] = true;
  state.server_compute[2] = 0.5;

  const DegradedCluster degraded = MakeDegradedCluster(cluster, state);
  ASSERT_TRUE(degraded.feasible);
  EXPECT_EQ(degraded.cluster.num_servers(), 2);
  ASSERT_EQ(degraded.to_original_server, (std::vector<topo::ServerId>{0, 2}));
  EXPECT_EQ(degraded.to_original_device, (std::vector<topo::DeviceId>{0, 2}));
  EXPECT_EQ(degraded.from_original_device, (std::vector<topo::DeviceId>{0, -1, 1}));
  // The straggler multiplier is baked into the planning cluster.
  EXPECT_DOUBLE_EQ(degraded.cluster.server_speed(0), 1.0);
  EXPECT_DOUBLE_EQ(degraded.cluster.server_speed(1), 0.5);
}

TEST(FaultDegradeTest, LinkDegradationScalesTheSurvivingFabric) {
  const topo::Cluster cluster = topo::MakeConfigB(2);
  ClusterState state = StateAt(FaultScript{}, cluster, 0.0);
  state.server_bandwidth[1] = 0.25;
  state.server_extra_latency[1] = 0.001;

  const DegradedCluster degraded = MakeDegradedCluster(cluster, state);
  ASSERT_TRUE(degraded.feasible);
  EXPECT_DOUBLE_EQ(degraded.cluster.interconnect().inter_server_bandwidth,
                   cluster.interconnect().inter_server_bandwidth * 0.25);
  EXPECT_DOUBLE_EQ(degraded.cluster.interconnect().inter_server_latency,
                   cluster.interconnect().inter_server_latency + 0.001);
}

TEST(FaultDegradeTest, NoSurvivingServerIsInfeasible) {
  const topo::Cluster cluster = topo::MakeConfigB(1);
  ClusterState state = StateAt(FaultScript{}, cluster, 0.0);
  state.device_dead[0] = true;
  const DegradedCluster degraded = MakeDegradedCluster(cluster, state);
  EXPECT_FALSE(degraded.feasible);
  EXPECT_EQ(degraded.from_original_device, (std::vector<topo::DeviceId>{-1}));
}

// --- RemapPlanToCluster ----------------------------------------------------

TEST(FaultDegradeTest, RemapKeepsLayerRangesAndClampsReplication) {
  const model::ModelProfile m = EightLayerModel();
  const planner::ParallelPlan plan = TwoStagePlan(m, 2);  // devices {0,1} | {2,3}

  const topo::Cluster cluster = topo::MakeConfigB(4);
  ClusterState state = StateAt(FaultScript{}, cluster, 0.0);
  state.device_dead[3] = true;

  const auto remapped = RemapPlanToCluster(plan, MakeDegradedCluster(cluster, state));
  ASSERT_TRUE(remapped.has_value());
  ASSERT_EQ(remapped->num_stages(), 2);
  EXPECT_EQ(remapped->stages[0].layer_begin, 0);
  EXPECT_EQ(remapped->stages[0].layer_end, 4);
  EXPECT_EQ(remapped->stages[1].layer_begin, 4);
  EXPECT_EQ(remapped->stages[1].layer_end, 8);
  // Three survivors: the first stage keeps both replicas, the second clamps.
  EXPECT_EQ(remapped->stages[0].replication(), 2);
  EXPECT_EQ(remapped->stages[1].replication(), 1);
  remapped->Validate(m);
}

TEST(FaultDegradeTest, RemapFailsWhenStagesOutnumberSurvivors) {
  const model::ModelProfile m = EightLayerModel();
  const planner::ParallelPlan plan = TwoStagePlan(m, 1);

  const topo::Cluster cluster = topo::MakeConfigB(2);
  ClusterState state = StateAt(FaultScript{}, cluster, 0.0);
  state.device_dead[1] = true;  // one survivor, two stages
  EXPECT_FALSE(RemapPlanToCluster(plan, MakeDegradedCluster(cluster, state)).has_value());
}

// --- BuildSpeedProfiles ----------------------------------------------------

struct BuiltScenario {
  model::ModelProfile model = EightLayerModel();
  topo::Cluster cluster = topo::MakeConfigB(2);
  planner::ParallelPlan plan;
  runtime::BuiltPipeline built;

  BuiltScenario() : plan(TwoStagePlan(model, 1)) {
    runtime::BuildOptions options;
    options.global_batch_size = 4;
    built = runtime::GraphBuilder(model, cluster, plan, options).Build();
  }

  std::vector<sim::ResourceSpeedProfile> Profiles(const FaultScript& script, TimeSec t0,
                                                  const ClusterState* baked = nullptr) {
    return BuildSpeedProfiles(script, cluster, {0, 1}, plan, built, t0, baked);
  }
};

TEST(FaultProfileTest, WindowsShiftIntoIterationLocalTime) {
  BuiltScenario s;
  const FaultScript script =
      ParseFaultScript("slowdown device=0 start=2 end=4 mult=0.5\n");

  const auto at_zero = s.Profiles(script, 0.0);
  ASSERT_EQ(at_zero.size(), 1u);
  EXPECT_EQ(at_zero[0].resource, 0);  // device 0's compute resource
  ASSERT_EQ(at_zero[0].segments.size(), 2u);
  EXPECT_DOUBLE_EQ(at_zero[0].segments[0].start, 2.0);
  EXPECT_DOUBLE_EQ(at_zero[0].segments[0].speed, 0.5);
  EXPECT_DOUBLE_EQ(at_zero[0].segments[1].start, 4.0);
  EXPECT_DOUBLE_EQ(at_zero[0].segments[1].speed, 1.0);

  // An iteration starting inside the window sees its remainder from t = 0.
  const auto mid = s.Profiles(script, 3.0);
  ASSERT_EQ(mid.size(), 1u);
  ASSERT_EQ(mid[0].segments.size(), 2u);
  EXPECT_DOUBLE_EQ(mid[0].segments[0].start, 0.0);
  EXPECT_DOUBLE_EQ(mid[0].segments[0].speed, 0.5);
  EXPECT_DOUBLE_EQ(mid[0].segments[1].start, 1.0);

  // Entirely in the past: no profile at all.
  EXPECT_TRUE(s.Profiles(script, 5.0).empty());
}

TEST(FaultProfileTest, CrashPinsTheDeviceForever) {
  BuiltScenario s;
  const FaultScript script = ParseFaultScript("crash device=1 at=2\n");
  const auto profiles = s.Profiles(script, 3.0);  // iteration starts after the crash
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].resource, 1);
  ASSERT_EQ(profiles[0].segments.size(), 1u);
  EXPECT_DOUBLE_EQ(profiles[0].segments[0].start, 0.0);
  EXPECT_DOUBLE_EQ(profiles[0].segments[0].speed, 0.0);
}

TEST(FaultProfileTest, BakedStateCancelsToResidualSpeeds) {
  BuiltScenario s;
  const FaultScript script =
      ParseFaultScript("slowdown device=0 start=2 end=4 mult=0.5\n");
  ClusterState baked = StateAt(script, s.cluster, 3.0);  // window active
  ASSERT_DOUBLE_EQ(baked.server_compute[0], 0.5);

  // While the baked window is active the pipeline's durations already carry
  // the slowdown: the residual is 1.0 inside the window and 2.0 after it.
  const auto mid = s.Profiles(script, 3.0, &baked);
  ASSERT_EQ(mid.size(), 1u);
  ASSERT_EQ(mid[0].segments.size(), 2u);
  EXPECT_DOUBLE_EQ(mid[0].segments[0].start, 0.0);
  EXPECT_DOUBLE_EQ(mid[0].segments[0].speed, 1.0);
  EXPECT_DOUBLE_EQ(mid[0].segments[1].start, 1.0);
  EXPECT_DOUBLE_EQ(mid[0].segments[1].speed, 2.0);

  // After the window the stale baked plan under-prices the device: it runs
  // at 2x the baked baseline until the next replan rebuilds it.
  const auto late = s.Profiles(script, 5.0, &baked);
  ASSERT_EQ(late.size(), 1u);
  ASSERT_EQ(late[0].segments.size(), 1u);
  EXPECT_DOUBLE_EQ(late[0].segments[0].start, 0.0);
  EXPECT_DOUBLE_EQ(late[0].segments[0].speed, 2.0);
}

// --- RunFaultExperiment ----------------------------------------------------

TEST(FaultRecoveryTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(ParseRecoveryPolicy("stall"), RecoveryPolicy::kSyncStall);
  EXPECT_EQ(ParseRecoveryPolicy("checkpoint"), RecoveryPolicy::kCheckpointRestart);
  EXPECT_EQ(ParseRecoveryPolicy("replan"), RecoveryPolicy::kElasticReplan);
  EXPECT_THROW(ParseRecoveryPolicy("hope"), Error);
  EXPECT_STREQ(ToString(RecoveryPolicy::kElasticReplan), "replan");
}

TEST(FaultRecoveryTest, FaultFreeScriptMatchesHealthyThroughput) {
  const model::ModelProfile m = EightLayerModel();
  const topo::Cluster cluster = topo::MakeConfigB(2);
  const FaultReport report = RunFaultExperiment(
      m, cluster, TwoStagePlan(m, 1), FaultScript{}, RecoveryPolicy::kSyncStall,
      FastOptions(8));
  EXPECT_GT(report.iterations_completed, 0);
  EXPECT_EQ(report.replans, 0);
  EXPECT_EQ(report.iterations_lost, 0);
  EXPECT_TRUE(report.recovered);
  // Goodput only loses the fractional iteration cut off by the horizon.
  EXPECT_GT(report.goodput, 0.9 * report.healthy_throughput);
  EXPECT_LE(report.goodput, report.healthy_throughput * (1.0 + 1e-9));
}

// The acceptance demo at unit scale: a persistent 0.5x straggler server.
// Sync-stall runs at the straggler's pace forever; the elastic replan pays
// one replan and rebalances onto the heterogeneous cluster.
TEST(FaultRecoveryTest, ElasticReplanBeatsSyncStallOnAPersistentStraggler) {
  const model::ModelProfile m = EightLayerModel();
  const topo::Cluster cluster = topo::MakeConfigB(2);
  const planner::ParallelPlan plan = TwoStagePlan(m, 1);
  const FaultScript script = ParseFaultScript("slowdown server=1 start=1 mult=0.5\n");
  const FaultOptions options = FastOptions(8);

  const FaultReport stall = RunFaultExperiment(m, cluster, plan, script,
                                               RecoveryPolicy::kSyncStall, options);
  const FaultReport replan = RunFaultExperiment(m, cluster, plan, script,
                                                RecoveryPolicy::kElasticReplan, options);

  // The straggler window never closes, so the baseline never runs clean.
  EXPECT_FALSE(stall.recovered);
  EXPECT_TRUE(std::isinf(stall.time_to_recover));
  EXPECT_GT(stall.goodput_loss, 0.0);

  EXPECT_GE(replan.replans, 1);
  EXPECT_TRUE(replan.recovered);
  EXPECT_TRUE(std::isfinite(replan.time_to_recover));
  EXPECT_GT(replan.post_fault_throughput, 0.0);
  EXPECT_GT(replan.goodput, stall.goodput);
  EXPECT_LT(replan.goodput_loss, stall.goodput_loss);
}

TEST(FaultRecoveryTest, CrashUnderSyncStallHaltsTheJobForGood) {
  const model::ModelProfile m = EightLayerModel();
  const topo::Cluster cluster = topo::MakeConfigB(2);
  const FaultScript script = ParseFaultScript("crash device=1 at=2\n");
  const FaultReport report =
      RunFaultExperiment(m, cluster, TwoStagePlan(m, 1), script,
                         RecoveryPolicy::kSyncStall, FastOptions(8));

  EXPECT_FALSE(report.recovered);
  EXPECT_TRUE(std::isinf(report.time_to_recover));
  EXPECT_EQ(report.iterations_lost, 1);
  EXPECT_DOUBLE_EQ(report.post_fault_throughput, 0.0);
  // Work done before the crash still counts toward goodput.
  EXPECT_GT(report.iterations_completed, 0);
  EXPECT_GT(report.goodput, 0.0);
  EXPECT_LT(report.goodput, report.healthy_throughput);
  // The timeline ends in a stall row pinned to the horizon.
  ASSERT_FALSE(report.timeline.empty());
  EXPECT_EQ(report.timeline.back().kind, "stall");
  EXPECT_DOUBLE_EQ(report.timeline.back().end, report.horizon);
}

TEST(FaultRecoveryTest, CheckpointRestartBoundsTheRollback) {
  const model::ModelProfile m = EightLayerModel();
  const topo::Cluster cluster = topo::MakeConfigB(4);
  const planner::ParallelPlan plan = TwoStagePlan(m, 2);
  const FaultScript script = ParseFaultScript("crash device=3 at=2\n");

  FaultOptions options = FastOptions(8);
  options.checkpoint_period = 3;
  options.checkpoint_cost = 0.05;
  options.detect_latency = 0.1;
  options.restore_cost = 0.3;

  // Every pipeline (initial and remapped) must satisfy the full invariant
  // set when run fault-free — the acceptance criterion, checked inline.
  int validated = 0;
  options.pipeline_observer = [&](const runtime::BuiltPipeline& built,
                                  const planner::ParallelPlan& p,
                                  const topo::Cluster& c) {
    (void)c;
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    const check::ValidationReport report =
        check::ScheduleValidator(p, built.options).Validate(built, result);
    EXPECT_TRUE(report.ok()) << "plan " << p.ToString() << ":\n" << report.ToString();
    ++validated;
  };

  const FaultReport report = RunFaultExperiment(m, cluster, plan, script,
                                                RecoveryPolicy::kCheckpointRestart, options);
  EXPECT_GE(validated, 2);  // initial + post-crash remap
  EXPECT_EQ(report.restores, 1);
  EXPECT_GE(report.checkpoints, 1);
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(std::isfinite(report.time_to_recover));
  EXPECT_GT(report.post_fault_throughput, 0.0);
  // Rollback loses at most the in-flight iteration plus one period's work.
  EXPECT_GE(report.iterations_lost, 1);
  EXPECT_LE(report.iterations_lost, options.checkpoint_period + 1);
}

TEST(FaultRecoveryTest, ElasticReplanSurvivesACrashWithValidatedPipelines) {
  const model::ModelProfile m = EightLayerModel();
  const topo::Cluster cluster = topo::MakeConfigB(4);
  const planner::ParallelPlan plan = TwoStagePlan(m, 2);
  const FaultScript script = ParseFaultScript("crash device=3 at=2\n");

  FaultOptions options = FastOptions(8);
  int validated = 0;
  options.pipeline_observer = [&](const runtime::BuiltPipeline& built,
                                  const planner::ParallelPlan& p,
                                  const topo::Cluster& c) {
    (void)c;
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    const check::ValidationReport report =
        check::ScheduleValidator(p, built.options).Validate(built, result);
    EXPECT_TRUE(report.ok()) << "plan " << p.ToString() << ":\n" << report.ToString();
    ++validated;
  };

  const FaultReport report = RunFaultExperiment(m, cluster, plan, script,
                                                RecoveryPolicy::kElasticReplan, options);
  EXPECT_GE(validated, 2);  // initial + replanned
  EXPECT_GE(report.replans, 1);
  EXPECT_TRUE(report.recovered);
  EXPECT_GT(report.post_fault_throughput, 0.0);
  // The replanned cluster lost a server; the final plan must differ in
  // placement from the initial 2:2 (three devices cannot host it).
  EXPECT_EQ(report.initial_plan, plan.ToString());
}

TEST(FaultRecoveryTest, CrashReplanOntoAGrownClusterIsAScaleUp) {
  // Device 1's crash shrinks the job to three devices. Device 2 crashes
  // next, and by the time that crash's replan reads the cluster both
  // devices are back: the replan lands on four devices, new hardware that
  // needs the checkpoint-bounded cutover of a boundary scale-up.
  const model::ModelProfile m = EightLayerModel();
  const topo::Cluster cluster = topo::MakeConfigB(4);
  const planner::ParallelPlan plan = TwoStagePlan(m, 2);
  const FaultScript script = ParseFaultScript(
      "crash device=1 at=2\n"
      "crash device=2 at=5.5\n"
      "rejoin device=1 at=5.6\n"
      "rejoin device=2 at=5.7\n");
  const FaultOptions options = FastOptions(8);

  const FaultReport report =
      RunFaultExperiment(m, cluster, plan, script, RecoveryPolicy::kElasticUp, options);
  EXPECT_EQ(report.scale_ups, 1);
  EXPECT_EQ(report.restores, 1);
  EXPECT_GE(report.max_scale_up_rollback, 1);
  EXPECT_LE(report.max_scale_up_rollback, options.checkpoint_period);

  // The scale-up row opens at the crash, pays replan and restore, and rolls
  // back to the last checkpoint: the next iteration redoes that index.
  int last_checkpoint = 0;
  const TimelineRow* scale_up = nullptr;
  for (const TimelineRow& row : report.timeline) {
    if (row.kind == "checkpoint" && scale_up == nullptr) {
      last_checkpoint = std::stoi(row.note.substr(row.note.find(' ') + 1));
    }
    if (row.kind == "scale-up") {
      ASSERT_EQ(scale_up, nullptr) << "a second scale-up at " << row.start;
      scale_up = &row;
      EXPECT_GE(row.start, 2.0);
      EXPECT_LE(row.start, 5.5);
      EXPECT_DOUBLE_EQ(row.end - row.start, options.detect_latency + options.replan_cost +
                                                options.restore_cost);
      EXPECT_TRUE(row.note.starts_with("rolled back to iteration " +
                                       std::to_string(last_checkpoint) + ", "))
          << row.note;
    } else if (row.kind == "iteration" && scale_up != nullptr) {
      EXPECT_EQ(row.iteration, last_checkpoint);
      break;
    }
  }
  ASSERT_NE(scale_up, nullptr);
  EXPECT_GT(last_checkpoint, 0);
}

TEST(FaultRecoveryTest, ReportsAreByteDeterministic) {
  const model::ModelProfile m = EightLayerModel();
  const topo::Cluster cluster = topo::MakeConfigB(2);
  const planner::ParallelPlan plan = TwoStagePlan(m, 1);
  const FaultScript script = ParseFaultScript(
      "slowdown server=1 start=1 end=3 mult=0.5\n"
      "crash device=1 at=5\n");
  const FaultOptions options = FastOptions(8);

  const FaultReport a = RunFaultExperiment(m, cluster, plan, script,
                                           RecoveryPolicy::kElasticReplan, options);
  const FaultReport b = RunFaultExperiment(m, cluster, plan, script,
                                           RecoveryPolicy::kElasticReplan, options);
  EXPECT_EQ(ToJson(a), ToJson(b));
  EXPECT_EQ(ToChromeTrace(a), ToChromeTrace(b));
  EXPECT_EQ(ToText(a), ToText(b));
  // Infinity never leaks into the JSON encoding (golden-file safety).
  EXPECT_EQ(ToJson(a).find("inf"), std::string::npos);
}

// --- Replan memo -----------------------------------------------------------

std::int64_t MemoHits() {
  return obs::MetricsRegistry::Global().counter("fault.replan.memo_hits").value();
}

TEST(FaultReplanMemoTest, RecurringClustersReuseTheFreshPlan) {
  // Losing server 1 and, after its rejoin, losing server 2 leave the same
  // 3-server cluster. The slowdown that follows makes a 3-server cluster
  // that is *not* the same, so a memo keyed on the survivor count alone
  // would hand back the plan built for the homogeneous survivors.
  const model::ModelProfile m = EightLayerModel();
  const topo::Cluster cluster = topo::MakeConfigB(4);
  const planner::ParallelPlan plan = TwoStagePlan(m, 2);
  const FaultScript script = ParseFaultScript(
      "crash device=1 at=2\n"
      "rejoin device=1 at=4\n"
      "crash device=2 at=6\n"
      "slowdown server=3 start=7.5 end=9 mult=0.25\n");
  FaultOptions options = FastOptions(8);
  options.horizon = 12.0;
  std::vector<std::pair<planner::ParallelPlan, topo::Cluster>> built;
  options.pipeline_observer = [&](const runtime::BuiltPipeline&, const planner::ParallelPlan& p,
                                  const topo::Cluster& c) { built.emplace_back(p, c); };

  const std::int64_t hits_before = MemoHits();
  const FaultReport report =
      RunFaultExperiment(m, cluster, plan, script, RecoveryPolicy::kElasticUp, options);
  EXPECT_GE(MemoHits() - hits_before, 2);

  // Every pipeline after the initial one runs the plan a fresh planner
  // finds for the degraded cluster it was built on, and the timeline row
  // that installed it names that plan.
  std::vector<const TimelineRow*> rows;
  for (const TimelineRow& row : report.timeline) {
    if (row.kind == "replan" || row.kind == "scale-up") rows.push_back(&row);
  }
  ASSERT_EQ(static_cast<int>(rows.size()), report.replans);
  ASSERT_EQ(built.size(), rows.size() + 1);
  planner::PlannerOptions planner_options = options.planner;
  planner_options.global_batch_size = options.build.global_batch_size;
  bool saw_heterogeneous = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [p, c] = built[i + 1];
    const std::string fresh =
        planner::DapplePlanner(m, c, planner_options).Plan().plan.ToString();
    EXPECT_EQ(p.ToString(), fresh) << "replan " << i << " onto " << c.num_servers()
                                   << " servers";
    EXPECT_TRUE(rows[i]->note.ends_with(" as " + fresh)) << rows[i]->note;
    saw_heterogeneous = saw_heterogeneous || !c.homogeneous();
  }
  EXPECT_TRUE(saw_heterogeneous);
}

TEST(FaultReplanMemoTest, RecurringInfeasibleStateRemapsTheRunningPlan) {
  // Under a 1-byte planning cap the planner finds nothing anywhere, so
  // every replan falls back to remapping the running plan. The 3-server
  // state recurs from a different running plan and must remap *that*:
  // 1|3 on four devices shrinks to 1|2, grows back to 2|2 on the rejoin,
  // and then shrinks to 2|1 — not the 1|2 the first visit produced.
  const model::ModelProfile m = EightLayerModel();
  const topo::Cluster cluster = topo::MakeConfigB(4);
  planner::ParallelPlan plan;
  plan.model = m.name();
  plan.stages.push_back({0, 4, topo::DeviceSet::Range(0, 1)});
  plan.stages.push_back({4, 8, topo::DeviceSet::Range(1, 3)});
  const FaultScript script = ParseFaultScript(
      "crash device=1 at=2\n"
      "rejoin device=1 at=4\n"
      "crash device=2 at=6\n");
  FaultOptions options = FastOptions(8);
  options.horizon = 12.0;
  options.planner.latency.memory_cap = 1;
  std::vector<std::string> replicas;
  options.pipeline_observer = [&](const runtime::BuiltPipeline&, const planner::ParallelPlan& p,
                                  const topo::Cluster&) {
    replicas.push_back(std::to_string(p.stages[0].replication()) + "|" +
                       std::to_string(p.stages[1].replication()));
  };

  const std::int64_t hits_before = MemoHits();
  const FaultReport report =
      RunFaultExperiment(m, cluster, plan, script, RecoveryPolicy::kElasticUp, options);
  EXPECT_GE(MemoHits() - hits_before, 1);
  EXPECT_EQ(report.replans, 3);
  EXPECT_EQ(replicas, (std::vector<std::string>{"1|3", "1|2", "2|2", "2|1"}));
}

}  // namespace
}  // namespace dapple::fault
