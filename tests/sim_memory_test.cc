// Direct unit coverage for sim/memory.cc (previously tested only through
// the engine) plus the schedule-level high-water claims that rest on it:
// GPipe's fill-drain peak grows with the micro-batch count M while
// DAPPLE's early-backward peak stays flat (paper §III), recomputation
// trades the activation footprint down, and under both PA and PB warmup
// the peak is a property-tested invariant of M across fuzzed pipelines
// (§V-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/error.h"
#include "check/fuzz.h"
#include "fuzz_env.h"
#include "model/zoo.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"
#include "sim/memory.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple::sim {
namespace {

TEST(MemoryPool, PeakTracksHighWaterIncrementally) {
  MemoryPool pool;
  pool.Allocate(1.0, 100);
  EXPECT_EQ(pool.peak(), 100u);
  EXPECT_DOUBLE_EQ(pool.peak_time(), 1.0);
  pool.Free(2.0, 40);
  EXPECT_EQ(pool.current(), 60u);
  EXPECT_EQ(pool.peak(), 100u);  // peak never decreases
  EXPECT_DOUBLE_EQ(pool.peak_time(), 1.0);
  pool.Allocate(3.0, 50);
  EXPECT_EQ(pool.peak(), 110u);
  EXPECT_DOUBLE_EQ(pool.peak_time(), 3.0);
}

TEST(MemoryPool, PeakTimeIsFirstInstantOfPeak) {
  MemoryPool pool;
  pool.Allocate(1.0, 100);
  pool.Free(2.0, 100);
  // Re-reaching (not exceeding) the old peak keeps the original instant.
  pool.Allocate(5.0, 100);
  EXPECT_EQ(pool.peak(), 100u);
  EXPECT_DOUBLE_EQ(pool.peak_time(), 1.0);
}

TEST(MemoryPool, TransientSpikeAtOneTimestampStillCountsAsPeak) {
  // Alloc + free at the same simulated instant coalesce to one timeline
  // sample, but the bytes were resident: the high-water mark and its time
  // must reflect the spike the device had to hold.
  MemoryPool pool;
  pool.Allocate(1.0, 10);
  pool.Allocate(2.0, 90);
  pool.Free(2.0, 90);
  EXPECT_EQ(pool.current(), 10u);
  EXPECT_EQ(pool.peak(), 100u);
  EXPECT_DOUBLE_EQ(pool.peak_time(), 2.0);
  // The coalesced timeline keeps only the settled value at t=2...
  EXPECT_EQ(pool.timeline().back().bytes, 10u);
}

TEST(MemoryPool, BaselineCountsTowardPeak) {
  MemoryPool pool(0);
  pool.SetBaseline(500);
  EXPECT_EQ(pool.peak(), 500u);
  EXPECT_DOUBLE_EQ(pool.peak_time(), 0.0);
  pool.Allocate(1.5, 10);
  EXPECT_EQ(pool.peak(), 510u);
  EXPECT_DOUBLE_EQ(pool.peak_time(), 1.5);
}

TEST(MemoryPool, ZeroByteTrafficIsInvisible) {
  MemoryPool pool;
  pool.Allocate(1.0, 0);
  pool.Free(2.0, 0);
  EXPECT_EQ(pool.peak(), 0u);
  EXPECT_EQ(pool.timeline().size(), 1u);  // just the initial sample
}

TEST(MemoryPool, OomAgainstCapacity) {
  MemoryPool pool(100);
  pool.Allocate(1.0, 100);
  EXPECT_FALSE(pool.oom());
  pool.Allocate(2.0, 1);
  EXPECT_TRUE(pool.oom());
}

TEST(MemoryPool, OverFreeBelowBaselineThrows) {
  MemoryPool pool;
  pool.SetBaseline(100);
  pool.Allocate(1.0, 10);
  EXPECT_THROW(pool.Free(2.0, 20), Error);
}

// --- Schedule-level high-water claims --------------------------------------

/// Two single-device stages on Config-B, uniform layers — the paper's
/// Fig. 3 shape, with M controlled through the global batch size.
struct TwoStage {
  model::ModelProfile model = model::MakeUniformSynthetic(4, 0.002, 0.004, 1_MiB, 1'000'000);
  topo::Cluster cluster = topo::MakeConfigB(2);
  planner::ParallelPlan plan;
  runtime::BuildOptions options;

  TwoStage() {
    plan.model = model.name();
    plan.stages.push_back({0, 2, topo::DeviceSet::Range(0, 1)});
    plan.stages.push_back({2, 4, topo::DeviceSet::Range(1, 1)});
    options.micro_batch_size = 1;
    options.enforce_memory_capacity = false;
  }

  Bytes PeakAt(int m) {
    options.global_batch_size = m;
    const runtime::BuiltPipeline built =
        runtime::GraphBuilder(model, cluster, plan, options).Build();
    const SimResult result = Engine::Run(built.graph, built.engine_options);
    return result.MaxPeakMemory();
  }
};

TEST(SimMemory, GPipeFillDrainPeakGrowsWithM) {
  TwoStage fig;
  fig.options.schedule.kind = runtime::ScheduleKind::kGPipe;
  const Bytes at4 = fig.PeakAt(4);
  const Bytes at8 = fig.PeakAt(8);
  const Bytes at16 = fig.PeakAt(16);
  // GPipe holds all M forward activations before the drain: O(M).
  EXPECT_LT(at4, at8);
  EXPECT_LT(at8, at16);
}

TEST(SimMemory, DappleEarlyBackwardPeakIsFlatInM) {
  TwoStage fig;
  fig.options.schedule.kind = runtime::ScheduleKind::kDapple;
  const Bytes at4 = fig.PeakAt(4);
  const Bytes at8 = fig.PeakAt(8);
  const Bytes at16 = fig.PeakAt(16);
  // Early backward caps resident activations at the warmup depth K: O(K).
  EXPECT_EQ(at4, at8);
  EXPECT_EQ(at8, at16);
  EXPECT_GT(at4, 0u);
}

TEST(SimMemory, RecomputationLowersTheActivationPeak) {
  TwoStage plain;
  plain.options.schedule.kind = runtime::ScheduleKind::kDapple;
  TwoStage recomputed;
  recomputed.options.schedule.kind = runtime::ScheduleKind::kDapple;
  for (planner::StagePlan& stage : recomputed.plan.stages) stage.recompute = true;
  // Recomputation keeps only stage-boundary activations live between
  // forward and backward, at the price of extra compute — the peak drops.
  EXPECT_LT(recomputed.PeakAt(8), plain.PeakAt(8));
}

/// §V-C property, fuzzed: for DAPPLE schedules under either warmup policy,
/// doubling M at a fixed micro-batch size leaves every pool peak unchanged
/// whenever no stage's warmup depth is clamped by M itself.
TEST(SimMemory, WarmupPolicyPeakIsIndependentOfMAcrossFuzzedPipelines) {
  int checked = 0;
  const long fuzz_cases = std::max(150L, EnvFuzzIterations(150));
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(fuzz_cases); ++seed) {
    check::FuzzCase c = check::MakeFuzzCase(seed);
    if (c.options.schedule.kind != runtime::ScheduleKind::kDapple) continue;
    // Round-robin replication hands each replica ~M/|g| whole micro-batches,
    // so its per-device residency genuinely depends on M (the Fig. 8 tail
    // effect) — the flat-peak claim covers DAPPLE's split-micro-batch mode.
    if (c.options.replication == runtime::ReplicationMode::kRoundRobin) continue;
    for (const runtime::WarmupPolicy policy :
         {runtime::WarmupPolicy::kPA, runtime::WarmupPolicy::kPB}) {
      runtime::BuildOptions options = c.options;
      options.schedule.warmup = policy;
      options.schedule.warmup_override = 0;
      const runtime::BuiltPipeline built =
          runtime::GraphBuilder(c.model, c.cluster, c.plan, options).Build();
      if (built.num_micro_batches < 2) continue;
      int max_warmup = 0;
      for (int k : built.warmup_depths) max_warmup = std::max(max_warmup, k);
      if (max_warmup >= built.num_micro_batches) continue;  // clamped by M

      runtime::BuildOptions doubled = options;
      doubled.micro_batch_size = built.micro_batch_size;
      doubled.global_batch_size =
          static_cast<long>(built.micro_batch_size) * built.num_micro_batches * 2;
      const runtime::BuiltPipeline built2 =
          runtime::GraphBuilder(c.model, c.cluster, c.plan, doubled).Build();

      const SimResult r1 = Engine::Run(built.graph, built.engine_options);
      const SimResult r2 = Engine::Run(built2.graph, built2.engine_options);
      ASSERT_EQ(r1.pools.size(), r2.pools.size()) << "seed=" << seed;
      for (std::size_t p = 0; p < r1.pools.size(); ++p) {
        ASSERT_EQ(r1.pools[p].peak(), r2.pools[p].peak())
            << "seed=" << seed << " policy=" << runtime::ToString(policy)
            << " pool=" << p << " M=" << built.num_micro_batches << " -> "
            << built2.num_micro_batches << " " << c.Describe();
      }
      ++checked;
    }
  }
  // Non-vacuity: a healthy fraction of fuzz cases must actually run the
  // differential (DAPPLE schedule, M >= 2, warmup not clamped).
  EXPECT_GT(checked, fuzz_cases / 4);
}

}  // namespace
}  // namespace dapple::sim
