// Pinned fuzz-seed regressions. Each seed here once exposed (or guards
// against reintroducing) a specific estimator/simulator divergence; the
// cases run in the fast unit tier so the bracket constants (check/fuzz.h)
// cannot loosen unnoticed between full fuzz sweeps.
#include <gtest/gtest.h>

#include <set>

#include "check/fuzz.h"
#include "fault/script.h"

namespace dapple {
namespace {

// Seed 16186: a two-stage 1:3 plan on Config-C whose steady phase is
// transfer-heavy. Under the old serial comm model (steady = (M-1)(F+B) on
// one lane) the analytic latency overshot the simulated makespan by far
// more than the duplex-aware bracket allows; with comm rounds gated by
// max(F, B) it sits well inside check::kAnalyticOverSim.
//
// Re-pinned from seed 4299 when the generator grew the schedule-kind draw
// (4299 now lands on V-Min, which skips the latency bracket); 16186 is the
// same case shape — 2L/pmb3, Config-C(4), 1:3 split — under the new stream.
TEST(FuzzRegression, Seed16186StaysInsideTheDuplexBracket) {
  const check::FuzzCase c = check::MakeFuzzCase(16186);
  ASSERT_GE(c.plan.num_stages(), 2) << c.Describe();
  const check::FuzzOutcome out = check::ScheduleFuzz::Run(c);
  EXPECT_TRUE(out.ok()) << out.Summary();
  ASSERT_TRUE(out.checked_latency) << c.Describe();
  ASSERT_GT(out.simulated_makespan, 0.0);
  ASSERT_GT(out.analytic_latency, 0.0);

  // The tightened bracket, asserted explicitly so a tolerance loosening in
  // check/fuzz.h needs a deliberate edit here too.
  EXPECT_LE(out.analytic_latency, out.simulated_makespan * check::kAnalyticOverSim);
  EXPECT_LE(out.simulated_makespan, out.analytic_latency * check::kSimOverAnalytic);
  EXPECT_LE(check::kAnalyticOverSim, 1.30);
  EXPECT_LE(check::kSimOverAnalytic, 2.0);
}

// Seed 3410 produced the worst analytic/sim ratio (1.049) of the 100k-seed
// calibration sweep; it anchors the headroom below the 1.30 tolerance. It
// survived the schedule-kind expansion unchanged: a 20k-seed re-sweep over
// the five-kind generator still reports 3410 as the multi-stage worst case
// at the same 1.0489 ratio.
TEST(FuzzRegression, Seed3410IsTheSweepWorstCaseAndPasses) {
  const check::FuzzOutcome out = check::ScheduleFuzz::Run(check::MakeFuzzCase(3410));
  EXPECT_TRUE(out.ok()) << out.Summary();
  ASSERT_TRUE(out.checked_latency);
  EXPECT_LE(out.analytic_latency / out.simulated_makespan, 1.10);
}

// One pinned seed per schedule family added in the schedule-space
// expansion, each chosen for breadth: a replicated stage, a warmup
// override, or recompute on top of the new family's own machinery. These
// run the full validator invariant set (warmup shape, per-device order,
// in-flight cap, AllReduce gating) in the fast unit tier, so a generator
// or builder change that breaks a family fails here before the next long
// fuzz sweep.

// DAPPLE-2BP on a 3-stage 2:1:1 plan with a K=1 warmup override and the
// memory cap active: the split backward emits BI/BWW halves, the BWW half
// gates the replicated stage's AllReduce, and the in-flight window runs at
// the clamped K+1 transient.
TEST(FuzzRegression, Seed15PinsTheSplitBackwardFamily) {
  const check::FuzzCase c = check::MakeFuzzCase(15);
  ASSERT_EQ(c.options.schedule.kind, runtime::ScheduleKind::kDappleSplitBw)
      << c.Describe();
  ASSERT_GE(c.plan.num_stages(), 2) << c.Describe();
  const check::FuzzOutcome out = check::ScheduleFuzz::Run(c);
  EXPECT_TRUE(out.ok()) << out.Summary();
  EXPECT_GT(out.num_tasks, 0);
}

// V-Min on a 4-stage 2:4:1:1 plan (folds onto two groups) with recompute:
// every device hosts two non-adjacent chunks and the validator checks the
// merged group order against BuildSchedule's.
TEST(FuzzRegression, Seed64PinsTheVMinFamily) {
  const check::FuzzCase c = check::MakeFuzzCase(64);
  ASSERT_EQ(c.options.schedule.kind, runtime::ScheduleKind::kVMin) << c.Describe();
  ASSERT_GE(c.plan.num_stages(), 3) << c.Describe();
  const check::FuzzOutcome out = check::ScheduleFuzz::Run(c);
  EXPECT_TRUE(out.ok()) << out.Summary();
  EXPECT_GT(out.num_tasks, 0);
}

// V-Half on a 3-stage 3:2:2 plan with round-robin micro-batch assignment:
// the odd chunk count leaves the middle group hosting a single chunk, and
// round-robin filtering applies per replica inside each group order.
TEST(FuzzRegression, Seed6PinsTheVHalfFamily) {
  const check::FuzzCase c = check::MakeFuzzCase(6);
  ASSERT_EQ(c.options.schedule.kind, runtime::ScheduleKind::kVHalf) << c.Describe();
  ASSERT_GE(c.plan.num_stages(), 3) << c.Describe();
  const check::FuzzOutcome out = check::ScheduleFuzz::Run(c);
  EXPECT_TRUE(out.ok()) << out.Summary();
  EXPECT_GT(out.num_tasks, 0);
}

// Fault-fuzz seed 27: a DP plan that uses a strict subset of the cluster's
// devices, leaving the task graph with fewer referenced resources than the
// cluster has hardware, plus a fault script that targets only the idle
// hardware. The first BuildSpeedProfiles emitted windows for the idle
// devices and the engine rejected them ("speed profile for unknown
// resource 2"); profiles must silently skip resources the graph never
// references — a fault on idle hardware is a no-op.
//
// Re-pinned when FaultFuzz::Make split the script draw onto its own
// rng stream (decoupling scripts from topology draws); seed 27 kept the
// property under the new stream, and the preconditions below now assert it
// outright so a future generator change that loses it fails loudly here
// instead of quietly pinning nothing.
TEST(FuzzRegression, FaultSeed27ToleratesFaultsOnIdleDevices) {
  const check::FaultFuzzCase c = check::FaultFuzz::Make(27);
  std::set<topo::DeviceId> used;
  for (const auto& stage : c.plan.stages) {
    for (topo::DeviceId d : stage.devices.devices()) used.insert(d);
  }
  ASSERT_LT(static_cast<int>(used.size()), c.cluster.num_devices()) << c.Describe();
  bool targets_idle_hardware = false;
  for (const fault::FaultEvent& e : c.script.events) {
    if (e.device >= 0 && !used.contains(e.device)) targets_idle_hardware = true;
    if (e.server >= 0) {
      bool server_used = false;
      for (int g = 0; g < c.cluster.gpus_per_server(); ++g) {
        if (used.contains(e.server * c.cluster.gpus_per_server() + g)) server_used = true;
      }
      if (!server_used) targets_idle_hardware = true;
    }
  }
  ASSERT_TRUE(targets_idle_hardware) << c.Describe();

  const check::FaultFuzzOutcome out = check::FaultFuzz::Run(c);
  EXPECT_TRUE(out.ok()) << out.Summary();
  EXPECT_GE(out.pipelines_validated, 1);
}

}  // namespace
}  // namespace dapple
