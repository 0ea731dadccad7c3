// Fault injection and recovery-policy comparison (the paper's elasticity
// argument, §VI): the DP planner is cheap enough to re-run online, so a
// degraded cluster should be replanned, not waited out. Three scenarios on
// Config-A with GNMT-16 — a persistent 0.5x straggler server, a fail-stop
// crash mid-training, and a transient link degradation — each measured
// under all three recovery policies (sync-stall, checkpoint–restart,
// elastic replan).
#include "harness.h"

#include <cmath>
#include <cstdio>
#include <string>

using namespace dapple;

namespace {

std::string Num(double v, const char* unit) {
  if (std::isinf(v)) return "never";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f%s", v, unit);
  return buf;
}

void RunScenario(const char* title, const model::ModelProfile& m,
                 const topo::Cluster& cluster, const planner::ParallelPlan& plan,
                 const fault::FaultScript& script, const fault::FaultOptions& options) {
  std::printf("\n--- %s ---\n", title);
  std::printf("%s", script.ToString().c_str());
  std::printf("  %-12s %6s %12s %8s %10s %12s %s\n", "policy", "iters", "goodput",
              "loss", "recover", "post-fault", "actions");
  for (auto policy :
       {fault::RecoveryPolicy::kSyncStall, fault::RecoveryPolicy::kCheckpointRestart,
        fault::RecoveryPolicy::kElasticReplan}) {
    const fault::FaultReport r =
        fault::RunFaultExperiment(m, cluster, plan, script, policy, options);
    char actions[64];
    std::snprintf(actions, sizeof(actions), "%dx replan %dx ckpt %dx restore",
                  r.replans, r.checkpoints, r.restores);
    std::printf("  %-12s %6d %12s %7.1f%% %10s %12s %s\n", fault::ToString(policy),
                r.iterations_completed, Num(r.goodput, "/s").c_str(),
                100.0 * r.goodput_loss, Num(r.time_to_recover, "s").c_str(),
                Num(r.post_fault_throughput, "/s").c_str(), actions);
  }
}

}  // namespace

int main() {
  bench::PrintHeader("Fault injection — recovery-policy comparison on Config-A",
                     "DAPPLE paper, §VI (planner reuse under cluster changes)");

  const model::ModelProfile m = model::MakeGnmt16();
  const topo::Cluster cluster = topo::MakeConfigA(2);
  const long gbs = 64;

  // Healthy baseline: the planner-chosen plan on the undamaged cluster.
  const bench::EvalRow healthy = bench::Evaluate(m, cluster, gbs);
  std::printf("\nhealthy plan %s: %.2f samples/s\n",
              healthy.planned.plan.ToString().c_str(), healthy.report.throughput);

  fault::FaultOptions options;
  options.build.global_batch_size = gbs;
  options.planner.keep_alternatives = 0;
  // GNMT-16 iterations are ~160 ms here, so scale the horizon and the
  // control-plane costs accordingly (the FaultOptions defaults assume
  // multi-second iterations).
  options.horizon = 20.0;
  options.checkpoint_cost = 0.05;
  options.restore_cost = 1.0;
  options.detect_latency = 0.25;
  options.replan_cost = 0.5;

  const fault::FaultScript straggler =
      fault::ParseFaultScript("slowdown server=1 start=2 mult=0.5\n");
  RunScenario("persistent 0.5x straggler server", m, cluster, healthy.planned.plan,
              straggler, options);

  const fault::FaultReport stall = fault::RunFaultExperiment(
      m, cluster, healthy.planned.plan, straggler, fault::RecoveryPolicy::kSyncStall,
      options);
  const fault::FaultReport replan = fault::RunFaultExperiment(
      m, cluster, healthy.planned.plan, straggler, fault::RecoveryPolicy::kElasticReplan,
      options);

  RunScenario("fail-stop crash mid-training", m, cluster, healthy.planned.plan,
              fault::ParseFaultScript("crash device=12 at=12\n"), options);

  RunScenario("transient link degradation", m, cluster, healthy.planned.plan,
              fault::ParseFaultScript(
                  "degrade server=1 start=4 end=14 bandwidth=0.25 latency=0.0005\n"),
              options);

  bench::PrintComparison(
      "straggler goodput, elastic replan vs sync-stall",
      "replan wins",
      Num(replan.goodput, "/s") + " vs " + Num(stall.goodput, "/s"));
  bench::PrintComparison("straggler time-to-recover (replan)", "few iterations",
                         Num(replan.time_to_recover, "s"));
  return 0;
}
