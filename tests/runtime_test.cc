// Runtime behaviour tests: the executor must reproduce the paper's core
// scheduling claims — DAPPLE's peak memory independent of M, GPipe's O(M)
// growth and OOM, re-computation's memory/throughput trade, PB vs PA, and
// split vs round-robin replication (Fig. 8) — as read off the one iteration
// summary, obs::IterationReport.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "model/zoo.h"
#include "obs/report.h"
#include "planner/plan.h"
#include "runtime/executor.h"
#include "topo/cluster.h"

namespace dapple::runtime {
namespace {

using model::MakeUniformSynthetic;
using planner::ParallelPlan;
using planner::StagePlan;
using topo::DeviceSet;

ParallelPlan TwoStage(const model::ModelProfile& m, int split, int p, int q) {
  ParallelPlan plan;
  plan.model = m.name();
  StagePlan s0, s1;
  s0.layer_begin = 0;
  s0.layer_end = split;
  s0.devices = DeviceSet::Range(0, p);
  s1.layer_begin = split;
  s1.layer_end = m.num_layers();
  s1.devices = DeviceSet::Range(p, q);
  plan.stages = {s0, s1};
  return plan;
}

BuildOptions Opts(long gbs, ScheduleKind kind = ScheduleKind::kDapple) {
  BuildOptions o;
  o.global_batch_size = gbs;
  o.schedule.kind = kind;
  o.micro_batch_size = 2;  // Table VI keeps micro-batch fixed at 2
  return o;
}

class TableVIFixture : public ::testing::Test {
 protected:
  TableVIFixture()
      : bert_(model::MakeBert48()),
        cluster_(topo::MakeConfigB(2)),
        plan_(TwoStage(bert_, 24, 1, 1)) {}

  obs::IterationReport Run(long gbs, ScheduleKind kind, bool recompute) const {
    ParallelPlan plan = plan_;
    for (StagePlan& stage : plan.stages) stage.recompute = recompute;
    return obs::RunIteration(bert_, cluster_, plan, Opts(gbs, kind));
  }

  model::ModelProfile bert_;
  topo::Cluster cluster_;
  ParallelPlan plan_;
};

TEST_F(TableVIFixture, DappleMemoryIndependentOfM) {
  const auto m2 = Run(4, ScheduleKind::kDapple, false);
  const auto m8 = Run(16, ScheduleKind::kDapple, false);
  const auto m16 = Run(32, ScheduleKind::kDapple, false);
  EXPECT_EQ(m2.max_peak_memory, m8.max_peak_memory);
  EXPECT_EQ(m8.max_peak_memory, m16.max_peak_memory);
}

TEST_F(TableVIFixture, GPipeMemoryGrowsWithM) {
  const auto m2 = Run(4, ScheduleKind::kGPipe, false);
  const auto m8 = Run(16, ScheduleKind::kGPipe, false);
  EXPECT_GT(m8.max_peak_memory, m2.max_peak_memory);
}

TEST_F(TableVIFixture, GPipeEventuallyOoms) {
  const auto m16 = Run(32, ScheduleKind::kGPipe, false);
  EXPECT_TRUE(m16.oom);
  const auto dapple16 = Run(32, ScheduleKind::kDapple, false);
  EXPECT_FALSE(dapple16.oom);
}

TEST_F(TableVIFixture, ThroughputImprovesWithM) {
  const auto m2 = Run(4, ScheduleKind::kDapple, false);
  const auto m8 = Run(16, ScheduleKind::kDapple, false);
  const auto m16 = Run(32, ScheduleKind::kDapple, false);
  EXPECT_GT(m8.throughput, m2.throughput);
  EXPECT_GT(m16.throughput, m8.throughput);
}

TEST_F(TableVIFixture, RecomputationTradesThroughputForMemory) {
  const auto plain = Run(16, ScheduleKind::kDapple, false);
  const auto rc = Run(16, ScheduleKind::kDapple, true);
  EXPECT_LT(rc.max_peak_memory, plain.max_peak_memory);
  EXPECT_LT(rc.throughput, plain.throughput);
  // ~20% throughput cost for ~ the paper's backward-replay overhead.
  EXPECT_GT(rc.throughput, 0.6 * plain.throughput);
}

TEST_F(TableVIFixture, SameMicroBatchCountMatchesGPipeThroughputAtM2) {
  // With M=2 and 2 stages, DAPPLE and GPipe have identical bubble time
  // (paper SIII-B: "exact same bubble time as GPipe given the same stage
  // partition, micro-batches and device mapping").
  const auto dapple = Run(4, ScheduleKind::kDapple, false);
  const auto gpipe = Run(4, ScheduleKind::kGPipe, false);
  EXPECT_NEAR(dapple.makespan, gpipe.makespan, 1e-6 + 0.02 * gpipe.makespan);
}

TEST(Runtime, GPipeAndDappleSameBubbleTimeUniform) {
  // Free communication, uniform stages: the two schedules have identical
  // makespans for any M (the memory profile, not the bubbles, differs).
  const auto m = MakeUniformSynthetic(4, 0.010, 0.020, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigA(1);
  const ParallelPlan plan = TwoStage(m, 2, 1, 1);
  for (long gbs : {4L, 8L, 16L}) {
    BuildOptions o;
    o.global_batch_size = gbs;
    o.micro_batch_size = 1;
    o.schedule.kind = ScheduleKind::kDapple;
    const auto dapple = obs::RunIteration(m, cluster, plan, o);
    o.schedule.kind = ScheduleKind::kGPipe;
    const auto gpipe = obs::RunIteration(m, cluster, plan, o);
    EXPECT_NEAR(dapple.makespan, gpipe.makespan, 1e-9 + 0.03 * gpipe.makespan)
        << "gbs=" << gbs;
    EXPECT_LE(dapple.max_peak_memory, gpipe.max_peak_memory);
  }
}

TEST(Runtime, SplitReplicationBeatsRoundRobin) {
  // Fig. 8: splitting each micro-batch across replicas pipelines better
  // than round-robining whole micro-batches (tail effect).
  const auto m = MakeUniformSynthetic(4, 0.020, 0.040, 1_MiB, 1000, 2);
  const auto cluster = topo::MakeConfigA(1);
  // Stage 0 costs ~2x stage 1 per micro-batch, so it is replicated on two
  // devices — the paper's exact scenario.
  ParallelPlan plan;
  plan.model = m.name();
  StagePlan s0, s1;
  s0.layer_begin = 0;
  s0.layer_end = 3;
  s0.devices = DeviceSet::Range(0, 2);
  s1.layer_begin = 3;
  s1.layer_end = 4;
  s1.devices = DeviceSet::Range(2, 1);
  plan.stages = {s0, s1};

  BuildOptions o;
  o.global_batch_size = 20;
  o.micro_batch_size = 2;
  o.replication = ReplicationMode::kSplitMicroBatch;
  const auto split = obs::RunIteration(m, cluster, plan, o);
  o.replication = ReplicationMode::kRoundRobin;
  const auto rr = obs::RunIteration(m, cluster, plan, o);
  EXPECT_LT(split.makespan, rr.makespan);
}

TEST(Runtime, PolicyBHelpsWhenAcrIsHigh) {
  // Table IV: PB >= PA, with real gains only when cross-stage
  // communication is comparable to compute.
  const auto m = MakeUniformSynthetic(8, 0.004, 0.008, 48_MiB, 1'000'000, 1);
  const auto cluster = topo::MakeConfigB(4);
  ParallelPlan plan;
  plan.model = m.name();
  for (int s = 0; s < 4; ++s) {
    StagePlan sp;
    sp.layer_begin = 2 * s;
    sp.layer_end = 2 * (s + 1);
    sp.devices = DeviceSet::Range(s, 1);
    plan.stages.push_back(sp);
  }
  BuildOptions o;
  o.global_batch_size = 32;
  o.micro_batch_size = 1;
  o.schedule.warmup = WarmupPolicy::kPA;
  const auto pa = obs::RunIteration(m, cluster, plan, o);
  o.schedule.warmup = WarmupPolicy::kPB;
  const auto pb = obs::RunIteration(m, cluster, plan, o);
  EXPECT_LE(pb.makespan, pa.makespan * (1 + 1e-9));
  EXPECT_LT(pb.makespan, 0.98 * pa.makespan);
  // PB keeps more activations alive.
  EXPECT_GE(pb.max_peak_memory, pa.max_peak_memory);
}

TEST(Runtime, SpeedupBoundedByDeviceCount) {
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigA(2);
  const ParallelPlan plan = TwoStage(bert, 24, 8, 8);
  BuildOptions o;
  o.global_batch_size = 64;
  const auto report = obs::RunIteration(bert, cluster, plan, o);
  EXPECT_GT(report.speedup, 1.0);
  EXPECT_LE(report.speedup, 16.0);
  EXPECT_GT(report.utilization, 0.3);
  EXPECT_LE(report.utilization, 1.0);
  EXPECT_NEAR(report.bubble_fraction, 1.0 - report.utilization, 1e-12);
}

TEST(Runtime, WarmupDepthsReported) {
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigB(2);
  const ParallelPlan plan = TwoStage(bert, 24, 1, 1);
  BuildOptions o;
  o.global_batch_size = 16;
  o.micro_batch_size = 2;
  const auto report = obs::RunIteration(bert, cluster, plan, o);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].warmup_depth, 2);
  EXPECT_EQ(report.stages[1].warmup_depth, 1);
}

TEST(Runtime, DetailExposesTraceableArtifacts) {
  const auto m = MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigB(2);
  const ParallelPlan plan = TwoStage(m, 2, 1, 1);
  BuildOptions o;
  o.global_batch_size = 8;
  const ExecutionDetail detail = PipelineExecutor(m, cluster, plan, o).RunDetailed();
  EXPECT_GT(detail.pipeline.graph.num_tasks(), 0);
  EXPECT_GT(detail.result.makespan, 0.0);
  EXPECT_GE(detail.result.pools.size(), 2u);
}

}  // namespace
}  // namespace dapple::runtime

// -- appended tests -----------------------------------------------------

namespace dapple::runtime {
namespace {

TEST(Runtime, StageStatsBreakdown) {
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigA(2);
  planner::ParallelPlan plan;
  plan.model = bert.name();
  planner::StagePlan s0, s1;
  s0.layer_begin = 0;
  s0.layer_end = 24;
  s0.devices = topo::DeviceSet::Range(0, 8);
  s1.layer_begin = 24;
  s1.layer_end = 48;
  s1.devices = topo::DeviceSet::Range(8, 8);
  plan.stages = {s0, s1};
  BuildOptions o;
  o.global_batch_size = 64;
  const auto report = obs::RunIteration(bert, cluster, plan, o);
  ASSERT_EQ(report.stages.size(), 2u);
  for (const obs::StageReport& s : report.stages) {
    EXPECT_GT(s.forward_busy, 0.0);
    // Backward is ~2x forward in the zoo calibration.
    EXPECT_GT(s.backward_busy, 1.5 * s.forward_busy);
    EXPECT_GT(s.utilization, 0.3);
    EXPECT_LE(s.utilization, 1.0);
    // Replicated stages synchronize gradients.
    EXPECT_GT(s.allreduce, 0.0);
  }
  // Only the downstream stage receives cross-stage traffic.
  EXPECT_EQ(report.stages[0].inbound_transfer, 0.0);
  EXPECT_GT(report.stages[1].inbound_transfer, 0.0);
}

TEST(Runtime, StageStatsUtilizationConsistentWithGlobal) {
  const auto m = model::MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigB(2);
  const planner::ParallelPlan plan = TwoStage(m, 2, 1, 1);
  BuildOptions o;
  o.global_batch_size = 16;
  const auto report = obs::RunIteration(m, cluster, plan, o);
  double mean = 0;
  for (const obs::StageReport& s : report.stages) mean += s.utilization;
  mean /= report.stages.size();
  EXPECT_NEAR(mean, report.utilization, 1e-9);
}

ParallelPlan Straight(const model::ModelProfile& m, int stages) {
  ParallelPlan plan;
  plan.model = m.name();
  const int per = m.num_layers() / stages;
  for (int s = 0; s < stages; ++s) {
    plan.stages.push_back(
        {s * per, s + 1 == stages ? m.num_layers() : (s + 1) * per, DeviceSet::Range(s, 1)});
  }
  return plan;
}

TEST(Runtime, SplitBackwardCountsBothHalves) {
  // DAPPLE-2BP splits every backward into an input half (kBackward) and a
  // weight half (kBackwardWeight); a stage's backward time is both.
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigB(4);
  const ParallelPlan plan = Straight(bert, 4);
  BuildOptions o = Opts(16, ScheduleKind::kDappleSplitBw);
  const ExecutionDetail detail = PipelineExecutor(bert, cluster, plan, o).RunDetailed();
  const obs::IterationReport report = obs::BuildIterationReport(detail.pipeline, detail.result);
  std::vector<TimeSec> backward(plan.stages.size(), 0.0);
  for (const sim::TaskRecord& rec : detail.result.records) {
    if (!rec.executed) continue;
    const sim::Task& task = detail.pipeline.graph.task(rec.id);
    if (task.kind == sim::TaskKind::kBackward || task.kind == sim::TaskKind::kBackwardWeight) {
      backward[static_cast<std::size_t>(task.stage)] += rec.end - rec.start;
    }
  }
  ASSERT_EQ(report.stages.size(), plan.stages.size());
  for (const obs::StageReport& s : report.stages) {
    const auto replicas = static_cast<double>(s.devices.size());
    EXPECT_NEAR(s.backward_busy, backward[static_cast<std::size_t>(s.stage)] / replicas,
                1e-12)
        << "stage " << s.stage;
  }
}

TEST(Runtime, InboundTransferIsTheUpstreamOutbound) {
  // Stage s receives exactly the forward activations stage s-1 sends; the
  // backward gradients flowing the other way are not inbound traffic.
  const auto bert = model::MakeBert48();
  const auto cluster = topo::MakeConfigB(4);
  const auto report = obs::RunIteration(bert, cluster, Straight(bert, 4),
                                        Opts(16, ScheduleKind::kGPipe));
  ASSERT_EQ(report.stages.size(), 4u);
  EXPECT_EQ(report.stages[0].inbound_transfer, 0.0);
  for (std::size_t s = 1; s < report.stages.size(); ++s) {
    EXPECT_GT(report.stages[s].inbound_transfer, 0.0) << "stage " << s;
    EXPECT_EQ(report.stages[s].inbound_transfer, report.stages[s - 1].outbound_transfer)
        << "stage " << s;
  }
}

}  // namespace
}  // namespace dapple::runtime
