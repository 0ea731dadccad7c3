// Structural tests for the plan -> task-graph transformation (paper SV):
// task counts, dependency shape, warmup monotonicity, split vs round-robin
// replication, and memory effect wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "common/error.h"
#include "common/fingerprint.h"
#include "model/zoo.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"
#include "topo/cluster.h"

namespace dapple::runtime {
namespace {

using model::MakeUniformSynthetic;
using planner::ParallelPlan;
using planner::StagePlan;
using topo::DeviceSet;

ParallelPlan MakePlan(const model::ModelProfile& m,
                      std::vector<std::pair<int, DeviceSet>> splits) {
  ParallelPlan plan;
  plan.model = m.name();
  int begin = 0;
  for (auto& [end, devices] : splits) {
    StagePlan s;
    s.layer_begin = begin;
    s.layer_end = end;
    s.devices = devices;
    plan.stages.push_back(s);
    begin = end;
  }
  return plan;
}

BuildOptions Opts(long gbs, ScheduleKind kind = ScheduleKind::kDapple) {
  BuildOptions o;
  o.global_batch_size = gbs;
  o.schedule.kind = kind;
  return o;
}

TEST(GraphBuilder, TaskCountUnreplicatedPipeline) {
  const auto m = MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigB(2);
  const auto plan = MakePlan(m, {{2, DeviceSet::Range(0, 1)}, {4, DeviceSet::Range(1, 1)}});
  GraphBuilder builder(m, cluster, plan, Opts(8));
  const BuiltPipeline built = builder.Build();
  const int m_total = built.num_micro_batches;
  // Per micro-batch: 2 FW + 2 BW + 1 TXf + 1 TXb; plus 2 APPLY, no AR.
  EXPECT_EQ(built.graph.num_tasks(), m_total * 6 + 2);
  EXPECT_EQ(built.micro_batch_size * m_total, 8);
}

TEST(GraphBuilder, TaskCountReplicatedStage) {
  const auto m = MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigA(1);
  const auto plan = MakePlan(m, {{2, DeviceSet::Range(0, 2)}, {4, DeviceSet::Range(2, 1)}});
  GraphBuilder builder(m, cluster, plan, Opts(8));
  const BuiltPipeline built = builder.Build();
  const int m_total = built.num_micro_batches;
  // Per micro-batch: 3 FW + 3 BW + 2 TX; plus 1 AR + 3 APPLY.
  EXPECT_EQ(built.graph.num_tasks(), m_total * 8 + 4);
}

TEST(GraphBuilder, RoundRobinAssignsWholeMicroBatches) {
  const auto m = MakeUniformSynthetic(2, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigA(1);
  const auto plan = MakePlan(m, {{1, DeviceSet::Range(0, 2)}, {2, DeviceSet::Range(2, 1)}});
  BuildOptions o = Opts(8);
  o.replication = ReplicationMode::kRoundRobin;
  o.micro_batch_size = 2;
  GraphBuilder builder(m, cluster, plan, o);
  const BuiltPipeline built = builder.Build();
  // 4 micro-batches: stage0 has ONE FW per micro-batch (not per replica).
  int fw_stage0 = 0;
  for (const auto& t : built.graph.tasks()) {
    if (t.kind == sim::TaskKind::kForward && t.stage == 0) ++fw_stage0;
  }
  EXPECT_EQ(fw_stage0, 4);
  // Alternating device assignment.
  for (const auto& t : built.graph.tasks()) {
    if (t.kind == sim::TaskKind::kForward && t.stage == 0) {
      EXPECT_EQ(t.device, t.microbatch % 2);
    }
  }
}

/// Every task name of a 2BP build of a two-stage pipeline whose first
/// stage is replicated on devices 0 and 1, with two micro-batches, sorted.
std::vector<std::string> SplitBackwardNames(ReplicationMode mode, ScheduleKind kind) {
  const auto m = MakeUniformSynthetic(2, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigA(1);
  const auto plan = MakePlan(m, {{1, DeviceSet::Range(0, 2)}, {2, DeviceSet::Range(2, 1)}});
  BuildOptions o = Opts(4, kind);
  o.replication = mode;
  o.micro_batch_size = 2;
  const BuiltPipeline built = GraphBuilder(m, cluster, plan, o).Build();
  std::vector<std::string> names;
  for (const sim::Task& t : built.graph.tasks()) names.push_back(sim::TaskName(t));
  std::sort(names.begin(), names.end());
  return names;
}

TEST(GraphBuilder, TaskNamesRenderFromFieldsInSplitMode) {
  const std::vector<std::string> want = {
      "APPLY s0 G0", "APPLY s0 G1", "APPLY s1 G2", "AR s0",       "BI s0 m0 G0",
      "BI s0 m0 G1", "BI s0 m1 G0", "BI s0 m1 G1", "BI s1 m0 G2", "BI s1 m1 G2",
      "BWW s0 m0 G0", "BWW s0 m0 G1", "BWW s0 m1 G0", "BWW s0 m1 G1", "BWW s1 m0 G2",
      "BWW s1 m1 G2", "FW s0 m0 G0", "FW s0 m0 G1", "FW s0 m1 G0", "FW s0 m1 G1",
      "FW s1 m0 G2", "FW s1 m1 G2", "TXb 1->0 m0", "TXb 1->0 m1", "TXf 0->1 m0",
      "TXf 0->1 m1"};
  EXPECT_EQ(SplitBackwardNames(ReplicationMode::kSplitMicroBatch, ScheduleKind::kDappleSplitBw),
            want);
}

TEST(GraphBuilder, TaskNamesRenderFromFieldsInRoundRobinMode) {
  // Micro-batch m of the replicated stage runs whole on device m % 2.
  const std::vector<std::string> want = {
      "APPLY s0 G0", "APPLY s0 G1", "APPLY s1 G2", "AR s0",        "BI s0 m0 G0",
      "BI s0 m1 G1", "BI s1 m0 G2", "BI s1 m1 G2", "BWW s0 m0 G0", "BWW s0 m1 G1",
      "BWW s1 m0 G2", "BWW s1 m1 G2", "FW s0 m0 G0", "FW s0 m1 G1", "FW s1 m0 G2",
      "FW s1 m1 G2", "TXb 1->0 m0", "TXb 1->0 m1", "TXf 0->1 m0", "TXf 0->1 m1"};
  EXPECT_EQ(SplitBackwardNames(ReplicationMode::kRoundRobin, ScheduleKind::kDappleSplitBw), want);
}

TEST(GraphBuilder, UnsplitBackwardsRenderAsBw) {
  // Without 2BP each backward is whole: "BW", never "BI" or "BWW".
  const std::vector<std::string> names =
      SplitBackwardNames(ReplicationMode::kRoundRobin, ScheduleKind::kDapple);
  const std::vector<std::string> want = {
      "APPLY s0 G0", "APPLY s0 G1", "APPLY s1 G2", "AR s0",       "BW s0 m0 G0",
      "BW s0 m1 G1", "BW s1 m0 G2", "BW s1 m1 G2", "FW s0 m0 G0", "FW s0 m1 G1",
      "FW s1 m0 G2", "FW s1 m1 G2", "TXb 1->0 m0", "TXb 1->0 m1", "TXf 0->1 m0",
      "TXf 0->1 m1"};
  EXPECT_EQ(names, want);
}

TEST(GraphBuilder, WarmupDepthsAreMonotoneNonIncreasing) {
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigB(4);
  const auto plan = MakePlan(bert, {{12, DeviceSet::Range(0, 1)},
                                    {24, DeviceSet::Range(1, 1)},
                                    {36, DeviceSet::Range(2, 1)},
                                    {48, DeviceSet::Range(3, 1)}});
  GraphBuilder builder(bert, cluster, plan, Opts(32));
  const BuiltPipeline built = builder.Build();
  ASSERT_EQ(built.warmup_depths.size(), 4u);
  for (std::size_t i = 1; i < built.warmup_depths.size(); ++i) {
    EXPECT_LE(built.warmup_depths[i], built.warmup_depths[i - 1]);
  }
  EXPECT_EQ(built.warmup_depths.back(), 1);
}

TEST(GraphBuilder, BuiltGraphsExecuteWithoutDeadlock) {
  // Cross product of schedules, policies and replication modes on a
  // replicated pipeline must all reach completion.
  const auto m = MakeUniformSynthetic(6, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigA(1);
  const auto plan = MakePlan(m, {{2, DeviceSet::Range(0, 2)},
                                 {4, DeviceSet::Range(2, 4)},
                                 {6, DeviceSet::Range(6, 2)}});
  for (auto kind : {ScheduleKind::kDapple, ScheduleKind::kGPipe}) {
    for (auto warmup : {WarmupPolicy::kPA, WarmupPolicy::kPB}) {
      for (auto mode : {ReplicationMode::kSplitMicroBatch, ReplicationMode::kRoundRobin}) {
        BuildOptions o = Opts(16, kind);
        o.schedule.warmup = warmup;
        o.replication = mode;
        GraphBuilder builder(m, cluster, plan, o);
        const BuiltPipeline built = builder.Build();
        EXPECT_NO_THROW(sim::Engine::Run(built.graph, built.engine_options))
            << ToString(kind) << "/" << ToString(warmup) << "/" << ToString(mode);
      }
    }
  }
}

TEST(GraphBuilder, MemoryEffectsBalance) {
  // Every byte a FW allocates is freed by its BW: pools end at baseline.
  const auto m = MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigB(2);
  auto plan = MakePlan(m, {{2, DeviceSet::Range(0, 1)}, {4, DeviceSet::Range(1, 1)}});
  for (bool recompute : {false, true}) {
    for (StagePlan& stage : plan.stages) stage.recompute = recompute;
    GraphBuilder builder(m, cluster, plan, Opts(8));
    const BuiltPipeline built = builder.Build();
    const sim::SimResult r = sim::Engine::Run(built.graph, built.engine_options);
    for (const auto& pool : r.pools) {
      EXPECT_EQ(pool.current(), pool.baseline());
    }
  }
}

TEST(GraphBuilder, RecomputeShrinksForwardStash) {
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigB(2);
  const auto plan = MakePlan(bert, {{24, DeviceSet::Range(0, 1)},
                                    {48, DeviceSet::Range(1, 1)}});
  auto rc_plan = plan;
  for (StagePlan& stage : rc_plan.stages) stage.recompute = true;
  const BuiltPipeline b_plain = GraphBuilder(bert, cluster, plan, Opts(16)).Build();
  const BuiltPipeline b_rc = GraphBuilder(bert, cluster, rc_plan, Opts(16)).Build();
  auto fw_alloc = [](const BuiltPipeline& b) {
    for (const auto& t : b.graph.tasks()) {
      if (t.kind == sim::TaskKind::kForward && t.stage == 1) return t.alloc_at_start;
    }
    return Bytes{0};
  };
  EXPECT_LT(fw_alloc(b_rc), fw_alloc(b_plain));
  EXPECT_GT(fw_alloc(b_rc), 0u);
}

TEST(GraphBuilder, PoolBaselinesHoldWeightsAndOptimizerState) {
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigB(2);
  const auto plan = MakePlan(bert, {{24, DeviceSet::Range(0, 1)},
                                    {48, DeviceSet::Range(1, 1)}});
  const BuiltPipeline built = GraphBuilder(bert, cluster, plan, Opts(16)).Build();
  EXPECT_EQ(built.engine_options.pool_baselines[0], bert.BaselineMemory(0, 24));
  EXPECT_EQ(built.engine_options.pool_baselines[1], bert.BaselineMemory(24, 48));
  EXPECT_EQ(built.engine_options.pool_capacities[0], cluster.device().memory);
}

TEST(GraphBuilder, AllReduceOnlyForReplicatedStages) {
  const auto m = MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigA(1);
  const auto plan = MakePlan(m, {{2, DeviceSet::Range(0, 2)}, {4, DeviceSet::Range(2, 1)}});
  const BuiltPipeline built = GraphBuilder(m, cluster, plan, Opts(8)).Build();
  int ar_count = 0;
  for (const auto& t : built.graph.tasks()) {
    if (t.kind == sim::TaskKind::kAllReduce) {
      ++ar_count;
      EXPECT_EQ(t.stage, 0);
    }
  }
  EXPECT_EQ(ar_count, 1);
}

TEST(GraphBuilder, ExplicitMicroBatchSizeHonored) {
  const auto m = MakeUniformSynthetic(2, 0.01, 0.02, 0, 0, 1);
  const auto cluster = topo::MakeConfigB(2);
  const auto plan = MakePlan(m, {{1, DeviceSet::Range(0, 1)}, {2, DeviceSet::Range(1, 1)}});
  BuildOptions o = Opts(16);
  o.micro_batch_size = 2;
  const BuiltPipeline built = GraphBuilder(m, cluster, plan, o).Build();
  EXPECT_EQ(built.micro_batch_size, 2);
  EXPECT_EQ(built.num_micro_batches, 8);
}

TEST(GraphBuilder, RejectsZeroBatch) {
  const auto m = MakeUniformSynthetic(2, 0.01, 0.02, 0, 0, 1);
  const auto cluster = topo::MakeConfigB(2);
  const auto plan = MakePlan(m, {{2, DeviceSet::Range(0, 1)}});
  EXPECT_THROW(GraphBuilder(m, cluster, plan, Opts(0)), dapple::Error);
}

/// Mixes everything a build produces into `fp`: every task field, every
/// successor list in order, and the pipeline-level results.
void MixBuilt(const BuiltPipeline& built, Fingerprint64& fp) {
  const sim::TaskGraph& g = built.graph;
  fp.Mix(static_cast<std::int64_t>(g.num_tasks()));
  for (const sim::Task& t : g.tasks()) {
    fp.Mix(static_cast<std::int64_t>(t.id))
        .Mix(sim::TaskName(t))
        .Mix(static_cast<std::int64_t>(t.kind))
        .Mix(static_cast<std::int64_t>(t.resource))
        .Mix(t.duration)
        .Mix(static_cast<std::int64_t>(t.pool))
        .Mix(static_cast<std::uint64_t>(t.alloc_at_start))
        .Mix(static_cast<std::uint64_t>(t.free_at_end))
        .Mix(static_cast<std::int64_t>(t.priority))
        .Mix(static_cast<std::int64_t>(t.stage))
        .Mix(static_cast<std::int64_t>(t.microbatch))
        .Mix(static_cast<std::int64_t>(t.device))
        .Mix(static_cast<std::uint64_t>(t.bytes));
    fp.Mix(static_cast<std::uint64_t>(g.successors(t.id).size()));
    for (sim::TaskId s : g.successors(t.id)) fp.Mix(static_cast<std::int64_t>(s));
  }
  fp.Mix(static_cast<std::int64_t>(built.micro_batch_size))
      .Mix(static_cast<std::int64_t>(built.num_micro_batches))
      .Mix(static_cast<std::int64_t>(built.num_devices))
      .Mix(static_cast<std::int64_t>(built.num_stages))
      .Mix(built.single_device_time);
  for (int w : built.warmup_depths) fp.Mix(static_cast<std::int64_t>(w));
  for (std::uint8_t r : built.stage_recompute) fp.Mix(static_cast<std::uint64_t>(r));
  for (Bytes b : built.engine_options.pool_baselines) fp.Mix(static_cast<std::uint64_t>(b));
  for (Bytes b : built.engine_options.pool_capacities) fp.Mix(static_cast<std::uint64_t>(b));
}

/// Digest of every build of fuzz seeds 1..150 under both replication
/// modes and every schedule kind, each built twice: with `vary(o, c, v)`
/// applied for v = 0 and v = 1.
template <class Vary>
std::string SweepDigest(const Vary& vary) {
  Fingerprint64 fp;
  int builds = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    for (ReplicationMode mode : {ReplicationMode::kSplitMicroBatch, ReplicationMode::kRoundRobin}) {
      for (ScheduleKind kind : AllScheduleKinds()) {
        for (int v : {0, 1}) {
          BuildOptions o = c.options;
          o.replication = mode;
          o.schedule.kind = kind;
          vary(o, c, v);
          MixBuilt(GraphBuilder(c.model, c.cluster, c.plan, o).Build(), fp);
          ++builds;
        }
      }
    }
  }
  EXPECT_EQ(builds, 150 * 2 * 5 * 2);
  return FingerprintToString(fp.digest());
}

// Pins the built graphs bit for bit: task ids, fields, rendered names, successor
// order and the pipeline metadata, over fuzz cases crossed with both
// replication modes, every schedule kind and AllReduce overlap on/off. A
// change to the builder that moves any of them changes this digest.
TEST(GraphBuilder, StructureDigestIsPinned) {
  EXPECT_EQ(SweepDigest([](BuildOptions& o, const check::FuzzCase&, int v) {
              o.overlap_allreduce = v == 0;
            }),
            "fp:6bee3ba4df519936");
}

// The same pin under a memory cap of device memory / 2 and / 8: the fuzz
// cases never set one, so this sweep is the one that reaches the capped
// in-flight throttle and the capped pool capacities.
TEST(GraphBuilder, CappedStructureDigestIsPinned) {
  EXPECT_EQ(SweepDigest([](BuildOptions& o, const check::FuzzCase& c, int v) {
              o.enforce_memory_capacity = true;
              o.memory_cap = c.cluster.device().memory / (v == 0 ? 2 : 8);
            }),
            "fp:cb71fe170cf8fa74");
}

}  // namespace
}  // namespace dapple::runtime
