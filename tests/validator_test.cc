// ScheduleValidator tests: a clean run passes every invariant family, and
// each hand-crafted corruption of the schedule (overlapped resource,
// reordered backward, exceeded warmup depth, leaked activation, missing
// AllReduce, dropped fan-in/fan-out edge, ...) is detected under its stable
// violation code.
#include <gtest/gtest.h>

#include "check/validator.h"
#include "model/zoo.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple {
namespace {

struct Scenario {
  model::ModelProfile model;
  topo::Cluster cluster;
  planner::ParallelPlan plan;
  runtime::BuildOptions options;

  runtime::BuiltPipeline Build() const {
    return runtime::GraphBuilder(model, cluster, plan, options).Build();
  }
};

/// Two single-device stages on Config-B, M = 4. DAPPLE warmup depths are
/// K = {2, 1} (policy PA), so stage 0 pipelines two micro-batches.
Scenario TwoStage(runtime::ScheduleKind kind) {
  Scenario s{model::MakeUniformSynthetic(4, 0.002, 0.004, 1_MiB, 1'000'000),
             topo::MakeConfigB(2),
             {},
             {}};
  s.plan.model = s.model.name();
  s.plan.stages.push_back({0, 2, topo::DeviceSet::Range(0, 1)});
  s.plan.stages.push_back({2, 4, topo::DeviceSet::Range(1, 1)});
  s.options.global_batch_size = 4;
  s.options.schedule.kind = kind;
  s.options.enforce_memory_capacity = false;
  return s;
}

/// Stage 0 replicated over two devices (so it owns a gradient AllReduce),
/// stage 1 on the third device.
Scenario Replicated() {
  Scenario s{model::MakeUniformSynthetic(4, 0.002, 0.004, 1_MiB, 1'000'000),
             topo::MakeConfigB(3),
             {},
             {}};
  s.plan.model = s.model.name();
  s.plan.stages.push_back({0, 2, topo::DeviceSet::Range(0, 2)});
  s.plan.stages.push_back({2, 4, topo::DeviceSet::Range(2, 1)});
  s.options.global_batch_size = 8;  // mbs auto-resolves to 2 => M = 4
  s.options.schedule.kind = runtime::ScheduleKind::kDapple;
  s.options.enforce_memory_capacity = false;
  return s;
}

/// Four single-layer stages on Config-B, one device each. Under the V
/// shapes chunks 0 and 3 fold onto device 0 and chunks 1 and 2 onto
/// device 1; devices 2 and 3 stay idle.
Scenario FourStage(runtime::ScheduleKind kind) {
  Scenario s{model::MakeUniformSynthetic(4, 0.002, 0.004, 1_MiB, 1'000'000),
             topo::MakeConfigB(4),
             {},
             {}};
  s.plan.model = s.model.name();
  for (int i = 0; i < 4; ++i) {
    s.plan.stages.push_back({i, i + 1, topo::DeviceSet::Range(i, 1)});
  }
  s.options.global_batch_size = 8;
  s.options.schedule.kind = kind;
  s.options.enforce_memory_capacity = false;
  return s;
}

check::ValidationReport Validate(const Scenario& s, const runtime::BuiltPipeline& built,
                                 const sim::SimResult& result) {
  return check::ScheduleValidator(s.plan, s.options).Validate(built, result);
}

/// First task matching a predicate; aborts the test if absent.
template <typename Pred>
sim::TaskId FindTask(const sim::TaskGraph& graph, Pred pred) {
  for (const sim::Task& t : graph.tasks()) {
    if (pred(t)) return t.id;
  }
  ADD_FAILURE() << "no task matches";
  return sim::kInvalidTask;
}

sim::TaskId FindCompute(const sim::TaskGraph& graph, sim::TaskKind kind, int stage,
                        int microbatch, int device) {
  return FindTask(graph, [&](const sim::Task& t) {
    return t.kind == kind && t.stage == stage && t.microbatch == microbatch &&
           t.device == device;
  });
}

/// A copy of `graph` with every task and edge except `from` -> `to`, which
/// must be an edge of `graph`. Task ids are preserved.
sim::TaskGraph WithoutEdge(const sim::TaskGraph& graph, sim::TaskId from, sim::TaskId to) {
  sim::TaskGraph copy;
  for (const sim::Task& t : graph.tasks()) copy.AddTask(t);
  bool dropped = false;
  for (sim::TaskId t = 0; t < graph.num_tasks(); ++t) {
    for (sim::TaskId succ : graph.successors(t)) {
      if (t == from && succ == to) {
        dropped = true;
      } else {
        copy.AddEdge(t, succ);
      }
    }
  }
  EXPECT_TRUE(dropped) << "no edge " << from << " -> " << to;
  return copy;
}

/// Simulates `s`, then validates that run against the pipeline with the
/// edge `from` -> `to` dropped: the fan-in/fan-out checks read the graph's
/// edges, so the intact run's records isolate them from timing effects.
check::ValidationReport ValidateWithoutEdge(const Scenario& s, runtime::BuiltPipeline built,
                                            sim::TaskId from, sim::TaskId to) {
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  built.graph = WithoutEdge(built.graph, from, to);
  return Validate(s, built, result);
}

TEST(ValidatorTest, CleanDappleRunPasses) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  const runtime::BuiltPipeline built = s.Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GE(report.checks_run, 7);
  EXPECT_EQ(report.ToString().substr(0, 2), "OK");
}

TEST(ValidatorTest, CleanGPipeRunPasses) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kGPipe);
  const runtime::BuiltPipeline built = s.Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ValidatorTest, CleanReplicatedRunPasses) {
  const Scenario s = Replicated();
  const runtime::BuiltPipeline built = s.Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Mutation 1: slide one forward on top of its device neighbour.
TEST(ValidatorTest, DetectsResourceOverlap) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  const runtime::BuiltPipeline built = s.Build();
  sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);

  const sim::TaskId f0 = FindCompute(built.graph, sim::TaskKind::kForward, 0, 0, 0);
  const sim::TaskId f1 = FindCompute(built.graph, sim::TaskKind::kForward, 0, 1, 0);
  const auto& r0 = result.records[static_cast<std::size_t>(f0)];
  auto& r1 = result.records[static_cast<std::size_t>(f1)];
  const TimeSec len = r1.end - r1.start;
  r1.start = (r0.start + r0.end) / 2;  // halfway into F0
  r1.end = r1.start + len;

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationResourceOverlap)) << report.ToString();
}

// Mutation 2: swap two backwards, breaking GPipe's LIFO backward order.
TEST(ValidatorTest, DetectsReorderedBackward) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kGPipe);
  const runtime::BuiltPipeline built = s.Build();
  sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);

  const sim::TaskId b3 = FindCompute(built.graph, sim::TaskKind::kBackward, 0, 3, 0);
  const sim::TaskId b0 = FindCompute(built.graph, sim::TaskKind::kBackward, 0, 0, 0);
  std::swap(result.records[static_cast<std::size_t>(b3)],
            result.records[static_cast<std::size_t>(b0)]);

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationScheduleOrder)) << report.ToString();
}

/// Exchanges the simulated intervals of tasks `a` and `b`, so each appears
/// to have run in the other's slot.
void SwapRecords(sim::SimResult& result, sim::TaskId a, sim::TaskId b) {
  std::swap(result.records[static_cast<std::size_t>(a)],
            result.records[static_cast<std::size_t>(b)]);
}

/// Simulates `s` and asserts that the untouched run validates clean, so a
/// later violation is the mutation's doing.
sim::SimResult CleanRun(const Scenario& s, const runtime::BuiltPipeline& built) {
  sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  const check::ValidationReport clean = Validate(s, built, result);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
  return result;
}

// Mutation 2b: on V-Min's group 0, chunk 0's and chunk 3's forwards of the
// same micro-batch trade places. Direction and micro-batch still match the
// V order position by position; only the chunk differs.
TEST(ValidatorTest, DetectsSwappedVChunksOnAGroupDevice) {
  const Scenario s = FourStage(runtime::ScheduleKind::kVMin);
  const runtime::BuiltPipeline built = s.Build();
  sim::SimResult result = CleanRun(s, built);

  SwapRecords(result, FindCompute(built.graph, sim::TaskKind::kForward, 0, 0, 0),
              FindCompute(built.graph, sim::TaskKind::kForward, 3, 0, 0));

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationScheduleOrder)) << report.ToString();
}

// Mutation 2c: under DAPPLE-2BP stage 0 runs F0 F1 BI0 F2 BWW0 BI1 F3 BWW1
// ... (K = 2). Swapping BWW0 with the forward after it (F3) breaks the
// direction order; swapping BI1 with BWW1 leaves direction and micro-batch
// in place and breaks only the weight half.
TEST(ValidatorTest, DetectsReorderedWeightHalf) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDappleSplitBw);
  const runtime::BuiltPipeline built = s.Build();
  const sim::SimResult clean = CleanRun(s, built);
  ASSERT_EQ(built.warmup_depths[0], 2);

  sim::SimResult past_forward = clean;
  SwapRecords(past_forward, FindCompute(built.graph, sim::TaskKind::kBackwardWeight, 0, 0, 0),
              FindCompute(built.graph, sim::TaskKind::kForward, 0, 3, 0));
  check::ValidationReport report = Validate(s, built, past_forward);
  EXPECT_TRUE(report.Has(check::kViolationScheduleOrder)) << report.ToString();

  sim::SimResult halves = clean;
  SwapRecords(halves, FindCompute(built.graph, sim::TaskKind::kBackward, 0, 1, 0),
              FindCompute(built.graph, sim::TaskKind::kBackwardWeight, 0, 1, 0));
  report = Validate(s, built, halves);
  EXPECT_TRUE(report.Has(check::kViolationScheduleOrder)) << report.ToString();
}

// Mutation 2d: round-robin replicated DAPPLE. Replica 0 of stage 0 owns
// micro-batches 0 and 2; swapping their forwards breaks its filtered order.
TEST(ValidatorTest, DetectsSwappedMicroBatchesOnARoundRobinReplica) {
  Scenario s = Replicated();
  s.options.replication = runtime::ReplicationMode::kRoundRobin;
  const runtime::BuiltPipeline built = s.Build();
  ASSERT_EQ(built.num_micro_batches, 4);
  sim::SimResult result = CleanRun(s, built);

  SwapRecords(result, FindCompute(built.graph, sim::TaskKind::kForward, 0, 0, 0),
              FindCompute(built.graph, sim::TaskKind::kForward, 0, 2, 0));

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationScheduleOrder)) << report.ToString();
}

// Mutation 3: claim a smaller warmup depth than the schedule actually used.
TEST(ValidatorTest, DetectsExceededWarmupDepth) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  runtime::BuiltPipeline built = s.Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  ASSERT_EQ(built.warmup_depths[0], 2);  // PA: K_0 = min(S - 0, D) = 2

  built.warmup_depths[0] = 1;  // the run keeps 2 micro-batches in flight

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationWarmupExceeded)) << report.ToString();
}

// Mutation 4: a backward that forgets to release its activations.
TEST(ValidatorTest, DetectsLeakedActivation) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  runtime::BuiltPipeline built = s.Build();
  const sim::TaskId leak = FindCompute(built.graph, sim::TaskKind::kBackward, 0, 0, 0);
  ASSERT_GT(built.graph.task(leak).free_at_end, 0u);
  built.graph.mutable_task(leak).free_at_end = 0;

  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationMemoryLeak)) << report.ToString();
  EXPECT_TRUE(report.Has(check::kViolationMemoryUnbalanced)) << report.ToString();
}

// Mutation 5: the replicated stage's gradient AllReduce disappears.
TEST(ValidatorTest, DetectsMissingAllReduce) {
  const Scenario s = Replicated();
  runtime::BuiltPipeline built = s.Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);

  const sim::TaskId ar = FindTask(built.graph, [](const sim::Task& t) {
    return t.kind == sim::TaskKind::kAllReduce;
  });
  built.graph.mutable_task(ar).kind = sim::TaskKind::kGeneric;

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationAllReduceMissing)) << report.ToString();
}

// Mutation 6: a transfer jumps the gun on its producing forward.
TEST(ValidatorTest, DetectsDependencyOrderViolation) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  const runtime::BuiltPipeline built = s.Build();
  sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);

  const sim::TaskId fwd = FindCompute(built.graph, sim::TaskKind::kForward, 0, 0, 0);
  ASSERT_FALSE(built.graph.successors(fwd).empty());
  const sim::TaskId succ = built.graph.successors(fwd).front();
  auto& rec = result.records[static_cast<std::size_t>(succ)];
  const TimeSec len = rec.end - rec.start;
  rec.start = result.records[static_cast<std::size_t>(fwd)].start;  // before fwd ends
  rec.end = rec.start + len;

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationDependencyOrder)) << report.ToString();
}

// Mutation 7: the reported makespan disagrees with the last task.
TEST(ValidatorTest, DetectsMakespanMismatch) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  const runtime::BuiltPipeline built = s.Build();
  sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  result.makespan += 1.0;

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationMakespan)) << report.ToString();
}

// Mutation 8: a stray AllReduce on an unreplicated stage.
TEST(ValidatorTest, DetectsExtraAllReduce) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  runtime::BuiltPipeline built = s.Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);

  const sim::TaskId apply = FindTask(built.graph, [](const sim::Task& t) {
    return t.kind == sim::TaskKind::kApply && t.stage == 0;
  });
  built.graph.mutable_task(apply).kind = sim::TaskKind::kAllReduce;

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationAllReduceExtra)) << report.ToString();
}

// Mutation 9: a record never marked as executed.
TEST(ValidatorTest, DetectsUnexecutedTask) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  const runtime::BuiltPipeline built = s.Build();
  sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  result.records[0].executed = false;

  const check::ValidationReport report = Validate(s, built, result);
  EXPECT_TRUE(report.Has(check::kViolationNotExecuted)) << report.ToString();
}

// Mutation 10: one backward no longer feeds the replicated stage's AllReduce.
TEST(ValidatorTest, DetectsAllReduceFanInGap) {
  const Scenario s = Replicated();
  const runtime::BuiltPipeline built = s.Build();
  const sim::TaskId ar = FindTask(built.graph, [](const sim::Task& t) {
    return t.kind == sim::TaskKind::kAllReduce;
  });
  const sim::TaskId bw = FindCompute(built.graph, sim::TaskKind::kBackward, 0, 0, 0);

  const check::ValidationReport report = ValidateWithoutEdge(s, built, bw, ar);
  EXPECT_TRUE(report.Has(check::kViolationAllReduceFanIn)) << report.ToString();
}

// Mutation 11: a replica's apply is no longer gated on the AllReduce.
TEST(ValidatorTest, DetectsApplyNotGatedOnAllReduce) {
  const Scenario s = Replicated();
  const runtime::BuiltPipeline built = s.Build();
  const sim::TaskId ar = FindTask(built.graph, [](const sim::Task& t) {
    return t.kind == sim::TaskKind::kAllReduce;
  });
  const sim::TaskId apply = FindTask(built.graph, [](const sim::Task& t) {
    return t.kind == sim::TaskKind::kApply && t.stage == 0 && t.device == 1;
  });

  const check::ValidationReport report = ValidateWithoutEdge(s, built, ar, apply);
  EXPECT_TRUE(report.Has(check::kViolationApplyShape)) << report.ToString();
}

// Mutation 12: an unreplicated stage's apply is no longer gated on one of
// its device's backwards.
TEST(ValidatorTest, DetectsApplyNotGatedOnBackward) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  const runtime::BuiltPipeline built = s.Build();
  const sim::TaskId apply = FindTask(built.graph, [](const sim::Task& t) {
    return t.kind == sim::TaskKind::kApply && t.stage == 0;
  });
  const sim::TaskId bw = FindCompute(built.graph, sim::TaskKind::kBackward, 0, 1, 0);

  const check::ValidationReport report = ValidateWithoutEdge(s, built, bw, apply);
  EXPECT_TRUE(report.Has(check::kViolationApplyShape)) << report.ToString();
}

/// The forward transfer across boundary 0 for micro-batch 0.
sim::TaskId ForwardTransfer(const runtime::BuiltPipeline& built) {
  const sim::ResourceId channel = built.layout().ForwardChannel(0);
  return FindTask(built.graph, [&](const sim::Task& t) {
    return t.kind == sim::TaskKind::kTransfer && t.microbatch == 0 && t.resource == channel;
  });
}

// Mutation 13: the producing forward no longer feeds its transfer.
TEST(ValidatorTest, DetectsTransferMissingProducer) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  const runtime::BuiltPipeline built = s.Build();
  const sim::TaskId fw = FindCompute(built.graph, sim::TaskKind::kForward, 0, 0, 0);

  const check::ValidationReport report =
      ValidateWithoutEdge(s, built, fw, ForwardTransfer(built));
  EXPECT_TRUE(report.Has(check::kViolationTransferShape)) << report.ToString();
}

// Mutation 14: the consuming forward is no longer gated on its transfer.
TEST(ValidatorTest, DetectsTransferMissingConsumer) {
  const Scenario s = TwoStage(runtime::ScheduleKind::kDapple);
  const runtime::BuiltPipeline built = s.Build();
  const sim::TaskId fw = FindCompute(built.graph, sim::TaskKind::kForward, 1, 0, 1);

  const check::ValidationReport report =
      ValidateWithoutEdge(s, built, ForwardTransfer(built), fw);
  EXPECT_TRUE(report.Has(check::kViolationTransferShape)) << report.ToString();
}

}  // namespace
}  // namespace dapple
