// Golden-file tests for the fault-report exporters: a fixed straggler-then-
// crash scenario under the elastic-replan policy must serialize byte-for-
// byte — both the JSON report and the Chrome trace. Any change to the
// recovery loop's timeline, the planner's tie-breaking on degraded
// clusters, or the JSON formatting shows up as a diff here before it
// reaches users' reports.
//
// To regenerate after an intentional change:
//
//   DAPPLE_REGEN_GOLDEN=1 ctest -L golden
//
// then review the diffs under tests/golden/ by hand.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/units.h"
#include "fault/recovery.h"
#include "fault/report.h"
#include "fault/script.h"
#include "model/zoo.h"
#include "planner/dp_planner.h"
#include "planner/plan.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple::fault {
namespace {

std::string GoldenPath(const char* file) {
  return std::string(DAPPLE_GOLDEN_DIR) + "/" + file;
}

FaultReport RunReplanScenario() {
  // Exact-representable layer times (2 ms / 4 ms) as in trace_golden_test.
  const auto m = model::MakeUniformSynthetic(8, 0.002, 0.004, 1_MiB, 1'000'000);
  const topo::Cluster cluster = topo::MakeConfigB(2);
  planner::ParallelPlan plan;
  plan.model = m.name();
  plan.stages.push_back({0, 4, topo::DeviceSet::Range(0, 1)});
  plan.stages.push_back({4, 8, topo::DeviceSet::Range(1, 1)});

  // A transient straggler window, then a fail-stop: the elastic policy
  // replans twice (onto the slowed cluster, then onto the survivor).
  const FaultScript script = ParseFaultScript(
      "slowdown server=1 start=0.25 end=0.75 mult=0.5\n"
      "crash device=1 at=1.25\n");

  FaultOptions options;
  options.build.global_batch_size = 4;
  options.planner.keep_alternatives = 0;
  options.horizon = 2.0;
  // Exact-representable recovery costs small enough that the job recovers
  // inside the two-second horizon (the defaults assume multi-second
  // iterations; this scenario's are ~120 ms).
  options.detect_latency = 0.125;
  options.replan_cost = 0.125;
  return RunFaultExperiment(m, cluster, plan, script, RecoveryPolicy::kElasticReplan,
                            options);
}

void CompareAgainstGolden(const std::string& rendered, const std::string& path) {
  if (std::getenv("DAPPLE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "regenerated " << path << "; review the diff";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with DAPPLE_REGEN_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();

  EXPECT_EQ(rendered, golden.str())
      << "output drifted from " << path
      << "; if intentional, regenerate with DAPPLE_REGEN_GOLDEN=1 and review";
}

TEST(FaultGoldenTest, ReplanScenarioReportMatchesGolden) {
  CompareAgainstGolden(ToJson(RunReplanScenario()),
                       GoldenPath("fault_report_replan.json"));
}

TEST(FaultGoldenTest, ReplanScenarioTraceMatchesGolden) {
  CompareAgainstGolden(ToChromeTrace(RunReplanScenario()),
                       GoldenPath("fault_trace_replan.json"));
}

/// The paper-scale recovery scenario: GNMT-16 on Config-A (2 servers x 8
/// GPUs), planner-chosen initial plan, a fail-stop crash on server 1 and an
/// elastic replan onto the survivor. The full timeline trace rides on the
/// simulation engine end to end — iteration makespans, fault re-costing and
/// the replanned schedule all feed it — so any drift in event ordering or
/// the engine's arithmetic lands here as a byte diff.
FaultReport RunGnmtCrashScenario() {
  const model::ModelProfile m = model::MakeGnmt16();
  const topo::Cluster cluster = topo::MakeConfigA(2);

  planner::PlannerOptions planner_options;
  planner_options.global_batch_size = 64;
  planner_options.keep_alternatives = 0;
  const planner::ParallelPlan plan =
      planner::DapplePlanner(m, cluster, planner_options).Plan().plan;

  // device 12 lives on server 1; its crash drains the whole server.
  const FaultScript script = ParseFaultScript("crash device=12 at=1\n");

  FaultOptions options;
  options.build.global_batch_size = 64;
  options.planner.keep_alternatives = 0;
  // GNMT-16 iterations are ~160 ms here; exact-representable horizon and
  // control-plane costs sized so the job crashes mid-run, replans once and
  // recovers well inside the horizon.
  options.horizon = 5.0;
  options.detect_latency = 0.25;
  options.replan_cost = 0.5;
  return RunFaultExperiment(m, cluster, plan, script, RecoveryPolicy::kElasticReplan,
                            options);
}

TEST(FaultGoldenTest, GnmtCrashReplanTraceMatchesGolden) {
  const FaultReport report = RunGnmtCrashScenario();
  // Sanity before byte-comparison: the scenario must actually exercise the
  // crash-and-replan path, or the golden pins a trivial timeline.
  EXPECT_EQ(report.replans, 1);
  EXPECT_TRUE(report.recovered);
  EXPECT_GT(report.iterations_completed, 5);
  CompareAgainstGolden(ToChromeTrace(report),
                       GoldenPath("fault_trace_gnmt_crash.json"));
}

}  // namespace
}  // namespace dapple::fault
