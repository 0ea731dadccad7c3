// Validates the DP planner against the exhaustive reference on instances
// small enough to enumerate: the DP's memoization (canonical allocation
// keys + best-prefix-per-state) is a heuristic, so we check it stays
// within a tight factor of the true optimum (and is exact in most cases).
#include <gtest/gtest.h>

#include "common/error.h"
#include "model/zoo.h"
#include "planner/bruteforce.h"
#include "planner/dp_planner.h"
#include "topo/cluster.h"

namespace dapple::planner {
namespace {

using model::MakeUniformSynthetic;

TEST(BruteForce, FindsFeasiblePlansOnly) {
  const auto m = MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 1'000'000, 1);
  const auto cluster = topo::MakeConfigB(3);
  BruteForceOptions o;
  o.global_batch_size = 16;
  BruteForcePlanner planner(m, cluster, o);
  const PlanResult result = planner.Plan();
  result.plan.Validate(m);
  EXPECT_TRUE(result.estimate.feasible);
  EXPECT_GT(result.stats.candidates_evaluated, 3);
}

TEST(BruteForce, ThrowsWhenNothingFits) {
  const auto huge = MakeUniformSynthetic(3, 0.01, 0.02, 1_MiB, 3'000'000'000ull, 1,
                                         model::OptimizerKind::kAdam);
  const auto cluster = topo::MakeConfigB(2);
  BruteForceOptions o;
  o.global_batch_size = 8;
  BruteForcePlanner planner(huge, cluster, o);
  EXPECT_THROW(planner.Plan(), dapple::Error);
}

class DpVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(DpVsBruteForceTest, DpWithinFactorOfOptimum) {
  // Sweep a family of small instances: layer counts, device counts,
  // gradient weights and activation sizes varied by the parameter.
  const int seed = GetParam();
  const int layers = 3 + seed % 3;
  const int devices = 2 + seed % 3;
  const auto m = MakeUniformSynthetic(layers, 0.005 + 0.004 * (seed % 4),
                                      0.010 + 0.008 * (seed % 4),
                                      static_cast<Bytes>((1 + seed % 8) * 1024 * 1024),
                                      static_cast<std::uint64_t>(1 + seed % 5) * 4'000'000,
                                      1);
  const auto cluster = seed % 2 == 0 ? topo::MakeConfigB(devices)
                                     : topo::MakeConfigC(devices);

  BruteForceOptions bf;
  bf.global_batch_size = 16;
  bf.max_stages = 3;
  BruteForcePlanner reference(m, cluster, bf);
  const PlanResult optimal = reference.Plan();

  PlannerOptions dp;
  dp.global_batch_size = 16;
  dp.max_stages = 3;
  DapplePlanner planner(m, cluster, dp);
  const PlanResult ours = planner.Plan();

  EXPECT_LE(ours.estimate.latency, optimal.estimate.latency * 1.05)
      << "layers=" << layers << " devices=" << devices << " dp=" << ours.plan.ToString()
      << " optimal=" << optimal.plan.ToString();
  // The DP can never beat the true optimum (same estimator).
  EXPECT_GE(ours.estimate.latency, optimal.estimate.latency - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SmallInstances, DpVsBruteForceTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace dapple::planner
