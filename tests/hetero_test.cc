// Heterogeneous-cluster extension: straggler servers / mixed GPU speeds
// (the Pipe-torch scenario the paper cites as related work). Verifies the
// speed plumbing through topology, estimator, runtime and planner.
#include <gtest/gtest.h>

#include "common/error.h"
#include "dapple/dapple.h"

namespace dapple {
namespace {

TEST(Hetero, ClusterSpeedAccessors) {
  const topo::Cluster base = topo::MakeConfigA(2);
  EXPECT_TRUE(base.homogeneous());
  EXPECT_DOUBLE_EQ(base.device_speed(0), 1.0);

  const topo::Cluster mixed = base.WithServerSpeeds({1.0, 0.5});
  EXPECT_FALSE(mixed.homogeneous());
  EXPECT_DOUBLE_EQ(mixed.device_speed(0), 1.0);
  EXPECT_DOUBLE_EQ(mixed.device_speed(8), 0.5);
  EXPECT_DOUBLE_EQ(mixed.server_speed(1), 0.5);

  EXPECT_THROW(base.WithServerSpeeds({1.0}), Error);          // arity
  EXPECT_THROW(base.WithServerSpeeds({1.0, 0.0}), Error);     // non-positive
}

TEST(Hetero, WithServersPreservesSpeeds) {
  const topo::Cluster mixed = topo::MakeConfigA(3).WithServerSpeeds({1.0, 0.5, 2.0});
  const topo::Cluster sliced = mixed.WithServers(2);
  EXPECT_FALSE(sliced.homogeneous());
  EXPECT_DOUBLE_EQ(sliced.server_speed(1), 0.5);
}

TEST(Hetero, StragglerReplicaGatesSplitStage) {
  // A stage replicated across a fast and a slow device: the micro-batch
  // completes when the slow slice does, so latency tracks the straggler.
  const auto m = model::MakeUniformSynthetic(4, 0.010, 0.020, 1_MiB, 1000, 2);
  const topo::Cluster fast = topo::Cluster("pair", 2, 1, topo::DeviceSpec{},
                                           topo::MakeConfigB(2).interconnect());
  const topo::Cluster straggler = fast.WithServerSpeeds({1.0, 0.5});

  planner::ParallelPlan plan;
  plan.model = m.name();
  planner::StagePlan s;
  s.layer_begin = 0;
  s.layer_end = 4;
  s.devices = topo::DeviceSet::Range(0, 2);
  plan.stages = {s};

  runtime::BuildOptions o;
  o.global_batch_size = 16;
  o.micro_batch_size = 4;
  const auto r_fast = obs::RunIteration(m, fast, plan, o);
  const auto r_slow = obs::RunIteration(m, straggler, plan, o);
  // The slow replica runs at half speed: its compute takes 2x, and with
  // gradient sync at the end the iteration roughly doubles.
  EXPECT_GT(r_slow.makespan, 1.8 * r_fast.makespan);
}

TEST(Hetero, EstimatorUsesSlowestReplica) {
  const auto m = model::MakeUniformSynthetic(4, 0.010, 0.020, 0, 0, 1);
  const topo::Cluster mixed = topo::Cluster("pair", 2, 1, topo::DeviceSpec{},
                                            topo::MakeConfigB(2).interconnect())
                                  .WithServerSpeeds({1.0, 0.25});
  planner::LatencyEstimator est(m, mixed);
  planner::ParallelPlan fast_only;
  fast_only.model = m.name();
  planner::StagePlan s;
  s.layer_begin = 0;
  s.layer_end = 4;
  s.devices = topo::DeviceSet({0});
  fast_only.stages = {s};
  planner::ParallelPlan slow_only = fast_only;
  slow_only.stages[0].devices = topo::DeviceSet({1});

  const auto e_fast = est.Estimate(fast_only, 8);
  const auto e_slow = est.Estimate(slow_only, 8);
  EXPECT_NEAR(e_slow.latency, 4.0 * e_fast.latency, 0.05 * e_slow.latency);
}

TEST(Hetero, PlannerShiftsWorkTowardFastServer) {
  // 2x8 Config-A with server 1 at half speed: the two-stage split must
  // give the slow server fewer BERT layers than the fast one.
  const auto bert = model::MakeBert48();
  const topo::Cluster mixed = topo::MakeConfigA(2).WithServerSpeeds({1.0, 0.5});
  Session session(bert, mixed);
  const auto planned = session.Plan(64);
  ASSERT_GE(planned.plan.num_stages(), 2);

  int fast_layers = 0, slow_layers = 0;
  for (const auto& stage : planned.plan.stages) {
    // A stage counts toward the slowest server it touches.
    double slowest = 1e9;
    for (topo::DeviceId d : stage.devices.devices()) {
      slowest = std::min(slowest, mixed.device_speed(d));
    }
    if (slowest < 1.0) {
      slow_layers += stage.num_layers();
    } else {
      fast_layers += stage.num_layers();
    }
  }
  EXPECT_GT(fast_layers, slow_layers);
  // And the heterogeneous cluster is genuinely slower end to end.
  Session homogeneous(bert, topo::MakeConfigA(2));
  EXPECT_LT(homogeneous.PlanAndRun(64).makespan, session.Run(planned.plan, 64).makespan);
}

TEST(Hetero, FreshFirstPrefersFasterServers) {
  const topo::Cluster mixed = topo::MakeConfigA(3).WithServerSpeeds({0.5, 2.0, 1.0});
  topo::AllocationState state(mixed);
  const auto set = state.Plan(topo::PlacementPolicy::kFreshFirst, 8);
  ASSERT_TRUE(set.has_value());
  // All eight devices land on server 1 (speed 2.0).
  for (topo::DeviceId d : set->devices()) {
    EXPECT_EQ(mixed.server_of(d), 1);
  }
}

TEST(Hetero, DeterministicPlansOnHeterogeneousClusters) {
  const auto gnmt = model::MakeGnmt16();
  const topo::Cluster mixed = topo::MakeConfigA(2).WithServerSpeeds({1.0, 0.75});
  Session session(gnmt, mixed);
  const auto a = session.Plan(1024);
  const auto b = session.Plan(1024);
  EXPECT_EQ(a.plan.ToDetailedString(), b.plan.ToDetailedString());
}

}  // namespace
}  // namespace dapple
