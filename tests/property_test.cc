// Property-based tests: randomized synthetic models, plans and schedules
// must uphold structural invariants of the simulator and the runtime —
// work conservation, critical-path lower bounds, memory balance, schedule
// validity — across a parameterized sweep of seeds.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "model/profile.h"
#include "planner/latency.h"
#include "planner/plan.h"
#include "obs/report.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"
#include "topo/cluster.h"

namespace dapple {
namespace {

model::ModelProfile RandomModel(Rng& rng) {
  const int layers = static_cast<int>(rng.UniformInt(2, 12));
  std::vector<model::LayerProfile> list;
  for (int i = 0; i < layers; ++i) {
    model::LayerProfile l;
    l.name = "l" + std::to_string(i);
    l.forward_time = rng.Uniform(0.001, 0.05);
    l.backward_time = l.forward_time * rng.Uniform(1.5, 2.5);
    l.fixed_overhead = rng.Uniform(0.0, 0.001);
    l.output_activation = static_cast<Bytes>(rng.UniformInt(0, 32) * 1024 * 1024);
    l.activation_memory = l.output_activation * 2 + 1024;
    l.param_count = static_cast<std::uint64_t>(rng.UniformInt(0, 20'000'000));
    list.push_back(std::move(l));
  }
  return model::ModelProfile("rand", std::move(list),
                             static_cast<int>(rng.UniformInt(1, 8)),
                             model::OptimizerKind::kAdam);
}

planner::ParallelPlan RandomPlan(Rng& rng, const model::ModelProfile& m,
                                 const topo::Cluster& cluster) {
  const int max_stages = std::min(m.num_layers(), cluster.num_devices());
  const int stages = static_cast<int>(rng.UniformInt(1, std::min(max_stages, 4)));
  // Random distinct split points.
  std::vector<int> splits = {0, m.num_layers()};
  while (static_cast<int>(splits.size()) < stages + 1) {
    const int s = static_cast<int>(rng.UniformInt(1, m.num_layers() - 1));
    if (std::find(splits.begin(), splits.end(), s) == splits.end()) splits.push_back(s);
  }
  std::sort(splits.begin(), splits.end());
  // Random device counts summing to <= devices.
  planner::ParallelPlan plan;
  plan.model = m.name();
  int next_dev = 0;
  for (std::size_t i = 0; i + 1 < splits.size(); ++i) {
    const int remaining_stages = static_cast<int>(splits.size() - 2 - i);
    const int available = cluster.num_devices() - next_dev - remaining_stages;
    const int r = static_cast<int>(rng.UniformInt(1, std::max(1, std::min(available, 4))));
    planner::StagePlan sp;
    sp.layer_begin = splits[i];
    sp.layer_end = splits[i + 1];
    sp.devices = topo::DeviceSet::Range(next_dev, r);
    next_dev += r;
    plan.stages.push_back(sp);
  }
  return plan;
}

class RandomPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipelineTest, SimulationInvariantsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const model::ModelProfile m = RandomModel(rng);
  const topo::Cluster cluster = topo::MakeConfigA(2);
  planner::ParallelPlan plan = RandomPlan(rng, m, cluster);
  plan.Validate(m);

  runtime::BuildOptions o;
  o.global_batch_size = rng.UniformInt(1, 4) * 8 * m.profile_micro_batch();
  o.schedule.kind = rng.Bernoulli(0.5) ? runtime::ScheduleKind::kDapple
                                       : runtime::ScheduleKind::kGPipe;
  o.schedule.warmup = rng.Bernoulli(0.5) ? runtime::WarmupPolicy::kPA
                                         : runtime::WarmupPolicy::kPB;
  const bool recompute = rng.Bernoulli(0.3);
  for (planner::StagePlan& stage : plan.stages) stage.recompute = recompute;
  o.enforce_memory_capacity = false;  // random models may be arbitrarily big

  runtime::GraphBuilder builder(m, cluster, plan, o);
  const runtime::BuiltPipeline built = builder.Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);

  // Work conservation: per-resource busy time equals the sum of its task
  // durations, and the makespan is at least the busiest resource.
  std::vector<double> expected_busy(static_cast<std::size_t>(built.graph.num_resources()),
                                    0.0);
  double total_work = 0.0;
  for (const sim::Task& t : built.graph.tasks()) {
    expected_busy[static_cast<std::size_t>(t.resource)] += t.duration;
    total_work += t.duration;
  }
  double max_busy = 0.0;
  for (int r = 0; r < built.graph.num_resources(); ++r) {
    EXPECT_NEAR(result.resources[static_cast<std::size_t>(r)].busy,
                expected_busy[static_cast<std::size_t>(r)], 1e-9);
    max_busy = std::max(max_busy, expected_busy[static_cast<std::size_t>(r)]);
  }
  EXPECT_GE(result.makespan + 1e-9, max_busy);
  EXPECT_LE(result.makespan, total_work + 1e-9);  // serial execution bound

  // Every task ran exactly once, within the makespan.
  for (const sim::TaskRecord& rec : result.records) {
    EXPECT_TRUE(rec.executed);
    EXPECT_GE(rec.start, 0.0);
    EXPECT_LE(rec.end, result.makespan + 1e-9);
  }

  // Dependency respect: each edge's successor starts at/after the
  // predecessor ends.
  for (const sim::Task& t : built.graph.tasks()) {
    for (sim::TaskId succ : built.graph.successors(t.id)) {
      EXPECT_GE(result.records[static_cast<std::size_t>(succ)].start + 1e-12,
                result.records[static_cast<std::size_t>(t.id)].end);
    }
  }

  // Memory balance: pools return to baseline.
  for (const sim::MemoryPool& pool : result.pools) {
    EXPECT_EQ(pool.current(), pool.baseline());
    EXPECT_GE(pool.peak(), pool.baseline());
  }
}

TEST_P(RandomPipelineTest, EstimatorIsFiniteAndConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const model::ModelProfile m = RandomModel(rng);
  const topo::Cluster cluster = topo::MakeConfigA(2);
  const planner::ParallelPlan plan = RandomPlan(rng, m, cluster);

  planner::LatencyOptions lo;
  lo.check_memory = false;
  planner::LatencyEstimator est(m, cluster, lo);
  const long gbs = rng.UniformInt(1, 8) * 8 * m.profile_micro_batch();
  const planner::PlanEstimate e = est.Estimate(plan, gbs);

  EXPECT_TRUE(std::isfinite(e.latency));
  EXPECT_GT(e.latency, 0.0);
  EXPECT_GE(e.warmup, 0.0);
  EXPECT_GE(e.steady, 0.0);
  EXPECT_GE(e.ending, 0.0);
  EXPECT_NEAR(e.latency, e.warmup + e.steady + e.ending, 1e-9);
  EXPECT_EQ(static_cast<long>(e.micro_batch_size) * e.num_micro_batches, gbs);
  EXPECT_GE(e.pivot, 0);
  EXPECT_LT(e.pivot, static_cast<int>(e.stages.size()));

  // Latency is a lower-bound-style approximation: it must never be more
  // than a small epsilon above the simulated makespan.
  runtime::BuildOptions o;
  o.global_batch_size = gbs;
  o.enforce_memory_capacity = false;
  const auto report = obs::RunIteration(m, cluster, plan, o);
  EXPECT_LE(e.latency, report.makespan * 1.10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineTest, ::testing::Range(0, 24));

class MicroBatchingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MicroBatchingPropertyTest, AlwaysExactCover) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (int i = 0; i < 50; ++i) {
    const long gbs = rng.UniformInt(1, 4096);
    const int profile = static_cast<int>(rng.UniformInt(1, 128));
    const int repl = static_cast<int>(rng.UniformInt(1, 16));
    const auto mb = planner::ChooseMicroBatching(gbs, profile, repl);
    EXPECT_EQ(static_cast<long>(mb.micro_batch_size) * mb.num_micro_batches, gbs);
    EXPECT_GE(mb.num_micro_batches, 1);
    EXPECT_GE(mb.micro_batch_size, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MicroBatchingPropertyTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace dapple
