// Property tests for the scenario layer, pinning the guarantees the
// long-horizon episode driver makes:
//
//   - elastic-up throughput is never below sync-stall on any seeded churn
//     episode (the whole point of re-admitting hardware);
//   - a scale-up cutover never rolls back further than the checkpoint
//     period (the checkpoint-bounded-loss guarantee);
//   - the co-scheduler never double-assigns a device, every per-job
//     pipeline passes the full ScheduleValidator invariant set, and the
//     searched split never loses to the naive even split, and it refuses a
//     budget whose servers differ in speed;
//   - RemapPlanToCluster with growth enabled spreads rejoined devices as
//     extra replicas instead of silently keeping the shrunken plan (the
//     historical bug on the rejoin path);
//   - generated churn scripts round-trip through the FaultScript DSL.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/validator.h"
#include "common/units.h"
#include "fault/degrade.h"
#include "fault/recovery.h"
#include "fault/script.h"
#include "model/zoo.h"
#include "planner/dp_planner.h"
#include "scenario/coscheduler.h"
#include "scenario/episode.h"
#include "scenario/fuzz.h"
#include "scenario/stream.h"
#include "topo/cluster.h"

namespace dapple::scenario {
namespace {

/// Lowest `dapple_fuzz --scenario` seed whose episode draws the elastic-up
/// policy AND takes a scale-up cutover (8-layer model, fuzz-2x2(4),
/// rolling maintenance under a V-Half schedule) — found by sweeping seeds
/// 0..120 and pinned so the fuzz corpus always covers the rejoin-growth
/// path end to end.
constexpr std::uint64_t kPinnedScaleUpSeed = 39;

model::ModelProfile TestModel() {
  return model::MakeUniformSynthetic(6, 0.002, 0.004, 1_MiB, 1'000'000);
}

/// Churn shaped so the elastic-up-beats-stall margin is structural, not
/// luck: outages are long relative to the recovery costs below, every
/// outage rejoins, and there is no straggler noise muddying the comparison.
ChurnOptions TestChurn(TimeSec horizon) {
  ChurnOptions churn;
  churn.horizon = horizon;
  churn.preempt_rate = 0.08;
  churn.min_outage = 4.0;
  churn.max_outage = 8.0;
  churn.rejoin_probability = 1.0;
  churn.maintenance_period = 8.0;
  churn.drain_duration = 4.0;
  return churn;
}

fault::FaultOptions TestFaultOptions() {
  fault::FaultOptions options;
  options.build.global_batch_size = 8;
  options.planner.keep_alternatives = 0;
  options.checkpoint_period = 5;
  options.checkpoint_cost = 0.01;
  options.restore_cost = 0.2;
  options.detect_latency = 0.1;
  options.replan_cost = 0.1;
  return options;
}

EpisodeReport RunOne(const model::ModelProfile& m, const topo::Cluster& cluster,
                     const planner::ParallelPlan& plan, std::uint64_t seed,
                     ChurnModel churn, fault::RecoveryPolicy policy) {
  EpisodeOptions options;
  options.seed = seed;
  options.churn = churn;
  options.churn_options = TestChurn(40.0);
  options.policy = policy;
  options.fault = TestFaultOptions();
  return RunEpisode(m, cluster, plan, options);
}

TEST(ScenarioPropertyTest, ElasticUpNeverBelowSyncStallOnChurnCorpus) {
  const model::ModelProfile m = TestModel();
  const topo::Cluster cluster = topo::MakeConfigB(3);
  planner::PlannerOptions po;
  po.global_batch_size = 8;
  po.keep_alternatives = 0;
  const planner::ParallelPlan plan = planner::DapplePlanner(m, cluster, po).Plan().plan;

  for (const ChurnModel churn : {ChurnModel::kSpotChurn, ChurnModel::kRollingMaintenance}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const EpisodeReport stall =
          RunOne(m, cluster, plan, seed, churn, fault::RecoveryPolicy::kSyncStall);
      const EpisodeReport up =
          RunOne(m, cluster, plan, seed, churn, fault::RecoveryPolicy::kElasticUp);
      EXPECT_GE(up.fault.goodput, stall.fault.goodput)
          << "elastic-up lost to sync-stall on churn=" << ToString(churn)
          << " seed=" << seed << " (stall " << stall.fault.goodput << ", elastic-up "
          << up.fault.goodput << " samples/s)";
      EXPECT_GE(stall.preemptions, 1) << "vacuous episode at seed " << seed;
    }
  }
}

TEST(ScenarioPropertyTest, ScaleUpCutoverIsCheckpointBounded) {
  const model::ModelProfile m = TestModel();
  const topo::Cluster cluster = topo::MakeConfigB(3);
  planner::PlannerOptions po;
  po.global_batch_size = 8;
  po.keep_alternatives = 0;
  const planner::ParallelPlan plan = planner::DapplePlanner(m, cluster, po).Plan().plan;

  int episodes_with_scale_up = 0;
  for (const ChurnModel churn : {ChurnModel::kSpotChurn, ChurnModel::kRollingMaintenance}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const EpisodeReport up =
          RunOne(m, cluster, plan, seed, churn, fault::RecoveryPolicy::kElasticUp);
      EXPECT_LE(up.fault.max_scale_up_rollback, TestFaultOptions().checkpoint_period)
          << "cutover lost more than a checkpoint period on churn=" << ToString(churn)
          << " seed=" << seed;
      if (up.fault.scale_ups > 0) ++episodes_with_scale_up;
    }
  }
  // The corpus must actually exercise the cutover path, or the bound above
  // is vacuous.
  EXPECT_GE(episodes_with_scale_up, 3);
}

TEST(ScenarioPropertyTest, ElasticUpEndsOnTheFullClusterAfterRejoin) {
  // The regression the rejoin path fixes: a crash followed by a rejoin used
  // to leave every policy on the shrunken plan forever (RemapPlanToCluster
  // silently kept the old plan when the cluster grew). Elastic-up must take
  // a scale-up cutover and finish on a plan spanning the full cluster.
  const model::ModelProfile m = TestModel();
  const topo::Cluster cluster = topo::MakeConfigB(2);
  planner::PlannerOptions po;
  po.global_batch_size = 8;
  po.keep_alternatives = 0;
  const planner::ParallelPlan plan = planner::DapplePlanner(m, cluster, po).Plan().plan;

  const fault::FaultScript script = fault::ParseFaultScript(
      "crash device=1 at=2\n"
      "rejoin device=1 at=6\n");
  fault::FaultOptions options = TestFaultOptions();
  options.horizon = 12.0;
  const fault::FaultReport report = fault::RunFaultExperiment(
      m, cluster, plan, script, fault::RecoveryPolicy::kElasticUp, options);

  EXPECT_GE(report.scale_ups, 1);
  bool has_scale_up_row = false;
  for (const fault::TimelineRow& row : report.timeline) {
    if (row.kind == "scale-up") has_scale_up_row = true;
  }
  EXPECT_TRUE(has_scale_up_row) << "no scale-up row in the elastic-up timeline";
  EXPECT_TRUE(report.recovered);

  // The legacy policies must see the same script as crash-permanent: byte-
  // identical to running without the rejoin line.
  const fault::FaultScript permanent = fault::ParseFaultScript("crash device=1 at=2\n");
  for (const auto policy :
       {fault::RecoveryPolicy::kSyncStall, fault::RecoveryPolicy::kCheckpointRestart,
        fault::RecoveryPolicy::kElasticReplan}) {
    const fault::FaultReport with_rejoin =
        fault::RunFaultExperiment(m, cluster, plan, script, policy, options);
    const fault::FaultReport without =
        fault::RunFaultExperiment(m, cluster, plan, permanent, policy, options);
    EXPECT_EQ(with_rejoin.iterations_completed, without.iterations_completed)
        << fault::ToString(policy) << " reacted to a rejoin it cannot use";
    EXPECT_EQ(with_rejoin.goodput, without.goodput) << fault::ToString(policy);
    EXPECT_EQ(with_rejoin.final_plan, without.final_plan) << fault::ToString(policy);
  }
}

TEST(ScenarioPropertyTest, RemapGrowthSpreadsRejoinedDevices) {
  const model::ModelProfile m = TestModel();
  const topo::Cluster cluster = topo::MakeConfigB(3);

  // The plan a policy would be running after losing server 2: two stages on
  // the two survivors.
  planner::ParallelPlan shrunken;
  shrunken.model = m.name();
  shrunken.stages.push_back({0, 3, topo::DeviceSet::Range(0, 1)});
  shrunken.stages.push_back({3, 6, topo::DeviceSet::Range(1, 1)});

  // The cluster after the rejoin: fully healthy again.
  const fault::ClusterState healthy =
      fault::StateAt(fault::FaultScript{}, cluster, 0.0);
  const fault::DegradedCluster grown = fault::MakeDegradedCluster(cluster, healthy);
  ASSERT_EQ(grown.cluster.num_devices(), 3);

  // Historical behaviour (allow_growth=false): the spare device stays idle.
  const auto kept = fault::RemapPlanToCluster(shrunken, grown);
  ASSERT_TRUE(kept.has_value());
  int kept_devices = 0;
  for (const auto& stage : kept->stages) kept_devices += stage.devices.size();
  EXPECT_EQ(kept_devices, 2);

  // Growth mode: the rejoined device becomes an extra replica.
  const auto regrown = fault::RemapPlanToCluster(shrunken, grown, /*allow_growth=*/true);
  ASSERT_TRUE(regrown.has_value());
  int regrown_devices = 0;
  for (const auto& stage : regrown->stages) regrown_devices += stage.devices.size();
  EXPECT_EQ(regrown_devices, 3);

  // Disjointness: no device serves two stages.
  std::set<topo::DeviceId> seen;
  for (const auto& stage : regrown->stages) {
    for (const topo::DeviceId d : stage.devices.devices()) {
      EXPECT_TRUE(seen.insert(d).second) << "device " << d << " double-assigned";
    }
  }
}

TEST(ScenarioPropertyTest, CoSchedulerDisjointValidatedAndNeverWorseThanEven) {
  const model::ModelProfile m = TestModel();
  const topo::Cluster budget = topo::MakeConfigB(5);

  std::vector<JobSpec> jobs;
  jobs.push_back(JobSpec{"heavy", m, 16, 120});
  jobs.push_back(JobSpec{"medium", m, 8, 60});
  jobs.push_back(JobSpec{"light", m, 4, 20});

  CoScheduleOptions options;
  options.planner.keep_alternatives = 0;
  int validated = 0;
  options.pipeline_observer = [&](const runtime::BuiltPipeline& built,
                                  const planner::ParallelPlan& plan,
                                  const topo::Cluster& slice) {
    (void)slice;
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    check::ScheduleValidator validator(plan, built.options);
    const check::ValidationReport report = validator.Validate(built, result);
    EXPECT_TRUE(report.ok()) << "job pipeline failed validation:\n" << report.ToString();
    ++validated;
  };

  const CoScheduleReport report = CoSchedule(budget, jobs, options);
  EXPECT_EQ(validated, 3);
  ASSERT_EQ(report.jobs.size(), 3u);

  // Contiguous, disjoint server ranges inside the budget — no device is
  // ever assigned to two jobs.
  int next = 0;
  for (const JobAssignment& a : report.jobs) {
    EXPECT_EQ(a.server_begin, next);
    EXPECT_GE(a.servers, 1);
    next = a.server_begin + a.servers;
  }
  EXPECT_LE(next, budget.num_servers());

  EXPECT_LE(report.aggregate_makespan, report.naive_even_makespan)
      << "the searched split lost to the naive even split";
  EXPECT_GT(report.utilization, 0.0);
}

// The co-scheduler builds each job's pipelines the way its planner priced
// them: a planner set to V-Min must yield V-Min pipelines, in the search's
// cells and in the final assignment the observer sees.
TEST(ScenarioPropertyTest, CoScheduleRunsThePlannedFamily) {
  const model::ModelProfile m = TestModel();
  const topo::Cluster budget = topo::MakeConfigB(3);
  std::vector<JobSpec> jobs;
  jobs.push_back(JobSpec{"heavy", m, 16, 60});
  jobs.push_back(JobSpec{"light", m, 8, 20});

  CoScheduleOptions options;
  options.planner.keep_alternatives = 0;
  options.planner.latency.schedule_kind = runtime::ScheduleKind::kVMin;
  int observed = 0;
  options.pipeline_observer = [&](const runtime::BuiltPipeline& built,
                                  const planner::ParallelPlan& plan, const topo::Cluster&) {
    EXPECT_EQ(built.options.schedule.kind, runtime::ScheduleKind::kVMin)
        << runtime::ToString(built.options.schedule.kind);
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    const check::ValidationReport report =
        check::ScheduleValidator(plan, built.options).Validate(built, result);
    EXPECT_TRUE(report.ok()) << report.ToString();
    ++observed;
  };
  const CoScheduleReport report = CoSchedule(budget, jobs, options);
  EXPECT_EQ(observed, 2);
  ASSERT_EQ(report.jobs.size(), 2u);
}

// A cell prices width w on the budget's first w servers, but job k runs on
// [server_begin, server_begin + w). With per-server speeds those differ, so
// every job after the first would carry an iteration time for servers it
// does not run on; the co-scheduler refuses such a budget outright.
TEST(ScenarioPropertyTest, CoSchedulerRefusesAHeterogeneousBudget) {
  const model::ModelProfile m = TestModel();
  const topo::Cluster budget = topo::MakeConfigB(4).WithServerSpeeds({0.25, 1, 1, 1});
  std::vector<JobSpec> jobs;
  jobs.push_back(JobSpec{"a", m, 8, 10});
  jobs.push_back(JobSpec{"b", m, 8, 10});
  EXPECT_THROW(CoSchedule(budget, jobs), Error);
}

TEST(ScenarioPropertyTest, ChurnScriptsRoundTripThroughTheDsl) {
  const topo::Cluster cluster = topo::MakeConfigB(4);
  ChurnOptions churn = TestChurn(30.0);
  churn.slowdown_probability = 0.4;  // exercise the straggler-noise lines too
  for (const ChurnModel model : {ChurnModel::kSpotChurn, ChurnModel::kRollingMaintenance}) {
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      const fault::FaultScript script = GenerateChurnScript(seed, cluster, model, churn);
      const std::string printed = script.ToString();
      EXPECT_EQ(fault::ParseFaultScript(printed).ToString(), printed)
          << "round trip drifted for churn=" << ToString(model) << " seed=" << seed;
      bool any_rejoin_or_crash = false;
      for (const fault::FaultEvent& e : script.events) {
        if (e.kind == fault::FaultKind::kDeviceCrash) any_rejoin_or_crash = true;
      }
      EXPECT_TRUE(any_rejoin_or_crash) << "churn script without churn at seed " << seed;
    }
  }
}

// Pinned from a `dapple_fuzz --scenario` sweep: the lowest seed whose
// episode takes a scale-up cutover (rejoin-driven growth replan) under the
// elastic-up policy — the closest the corpus came to the historical
// keep-the-old-plan bug. Must stay green and must keep exercising that
// path.
TEST(ScenarioPropertyTest, PinnedScaleUpFuzzSeedStaysGreen) {
  const ScenarioFuzzCase c = ScenarioFuzz::Make(kPinnedScaleUpSeed);
  EXPECT_EQ(c.policy, fault::RecoveryPolicy::kElasticUp) << c.Describe();
  const ScenarioFuzzOutcome out = ScenarioFuzz::Run(c);
  EXPECT_TRUE(out.ok()) << out.Summary();
  EXPECT_GE(out.scale_ups, 1) << "pinned seed no longer exercises the cutover path: "
                              << c.Describe();
}

}  // namespace
}  // namespace dapple::scenario
