#include <gtest/gtest.h>

#include <tuple>

#include "common/error.h"
#include "sim/engine.h"
#include "sim/graph.h"

namespace dapple::sim {
namespace {

Task MakeTask(std::string name, ResourceId resource, TimeSec duration,
              TaskKind kind = TaskKind::kGeneric) {
  Task t;
  t.name = std::move(name);
  t.resource = resource;
  t.duration = duration;
  t.kind = kind;
  return t;
}

TEST(Engine, SingleTask) {
  TaskGraph g;
  g.AddTask(MakeTask("a", 0, 2.0));
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_TRUE(r.records[0].executed);
  EXPECT_DOUBLE_EQ(r.records[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r.records[0].end, 2.0);
}

TEST(Engine, ChainRespectsDependencies) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask("a", 0, 1.0));
  const TaskId b = g.AddTask(MakeTask("b", 1, 1.0));
  const TaskId c = g.AddTask(MakeTask("c", 0, 1.0));
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.records[a].end, 1.0);
  EXPECT_DOUBLE_EQ(r.records[b].start, 1.0);
  EXPECT_DOUBLE_EQ(r.records[c].start, 2.0);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
}

TEST(Engine, IndependentResourcesRunConcurrently) {
  TaskGraph g;
  g.AddTask(MakeTask("a", 0, 3.0));
  g.AddTask(MakeTask("b", 1, 2.0));
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
  EXPECT_DOUBLE_EQ(r.records[1].start, 0.0);
}

TEST(Engine, SameResourceSerializes) {
  TaskGraph g;
  g.AddTask(MakeTask("a", 0, 1.0));
  g.AddTask(MakeTask("b", 0, 1.0));
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
}

TEST(Engine, PriorityBreaksReadyTies) {
  TaskGraph g;
  Task hi = MakeTask("hi", 0, 1.0);
  hi.priority = 0;
  Task lo = MakeTask("lo", 0, 1.0);
  lo.priority = 5;
  const TaskId lo_id = g.AddTask(lo);
  const TaskId hi_id = g.AddTask(hi);  // added second, but higher priority
  const SimResult r = Engine::Run(g);
  EXPECT_LT(r.records[hi_id].start, r.records[lo_id].start);
}

TEST(Engine, EqualPriorityFallsBackToId) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask("a", 0, 1.0));
  const TaskId b = g.AddTask(MakeTask("b", 0, 1.0));
  const SimResult r = Engine::Run(g);
  EXPECT_LT(r.records[a].start, r.records[b].start);
}

// Simultaneous completions drain in (time, priority, id) order — the
// documented contract from engine.h, not container luck. A (id 0, priority
// 5) and B (id 1, priority 0) both finish at t=1; their successors X and Y
// contend for resource 2, so whichever completion is processed first gets
// its successor dispatched first. The priority key must beat the id key:
// B's completion wins, Y runs at t=1 and X at t=2. Under the legacy
// (time, id) ordering the outcome was inverted.
TEST(Engine, SimultaneousCompletionsDrainByPriorityThenId) {
  auto build = [] {
    TaskGraph g;
    Task a = MakeTask("a", 0, 1.0);
    a.priority = 5;
    const TaskId a_id = g.AddTask(a);
    Task b = MakeTask("b", 1, 1.0);
    b.priority = 0;
    const TaskId b_id = g.AddTask(b);
    const TaskId x = g.AddTask(MakeTask("x", 2, 1.0));
    const TaskId y = g.AddTask(MakeTask("y", 2, 1.0));
    g.AddEdge(a_id, x);
    g.AddEdge(b_id, y);
    return std::make_tuple(std::move(g), x, y);
  };
  auto [g, x, y] = build();
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.records[y].start, 1.0);
  EXPECT_DOUBLE_EQ(r.records[x].start, 2.0);

  auto [g2, x2, y2] = build();
  const SimResult ref = RunReferenceEngine(g2);
  EXPECT_DOUBLE_EQ(ref.records[y2].start, 1.0);
  EXPECT_DOUBLE_EQ(ref.records[x2].start, 2.0);
}

// Equal (time, priority) falls through to the id key on both engines.
TEST(Engine, SimultaneousEqualPriorityCompletionsDrainById) {
  auto build = [] {
    TaskGraph g;
    const TaskId a = g.AddTask(MakeTask("a", 0, 1.0));
    const TaskId b = g.AddTask(MakeTask("b", 1, 1.0));
    const TaskId x = g.AddTask(MakeTask("x", 2, 1.0));
    const TaskId y = g.AddTask(MakeTask("y", 2, 1.0));
    g.AddEdge(a, x);
    g.AddEdge(b, y);
    return std::make_tuple(std::move(g), x, y);
  };
  auto [g, x, y] = build();
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.records[x].start, 1.0);
  EXPECT_DOUBLE_EQ(r.records[y].start, 2.0);

  auto [g2, x2, y2] = build();
  const SimResult ref = RunReferenceEngine(g2);
  EXPECT_DOUBLE_EQ(ref.records[x2].start, 1.0);
  EXPECT_DOUBLE_EQ(ref.records[y2].start, 2.0);
}

// The arena and flatten scratch are reused across Simulate() calls on one
// Engine instance;
// back-to-back runs of different shapes must not leak state between runs.
TEST(Engine, ArenaReuseAcrossShapes) {
  Engine engine;
  TaskGraph small;
  small.AddTask(MakeTask("s", 0, 1.0));
  TaskGraph big;
  for (int i = 0; i < 40; ++i) {
    big.AddTask(MakeTask("t" + std::to_string(i), i % 3, 0.25 + (i % 5) * 0.5));
  }
  for (int i = 0; i + 7 < 40; i += 2) big.AddEdge(i, i + 7);

  const SimResult big_first = engine.Simulate(big);
  const SimResult small_between = engine.Simulate(small);
  const SimResult big_again = engine.Simulate(big);
  EXPECT_DOUBLE_EQ(small_between.makespan, 1.0);
  ASSERT_EQ(big_first.records.size(), big_again.records.size());
  for (std::size_t i = 0; i < big_first.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(big_first.records[i].start, big_again.records[i].start);
    EXPECT_DOUBLE_EQ(big_first.records[i].end, big_again.records[i].end);
  }
}

TEST(Engine, DeadlockDetected) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask("a", 0, 1.0));
  const TaskId b = g.AddTask(MakeTask("b", 0, 1.0));
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  EXPECT_THROW(Engine::Run(g), Error);
}

TEST(Engine, MemoryPoolTracksAllocFree) {
  TaskGraph g;
  Task fw = MakeTask("fw", 0, 1.0, TaskKind::kForward);
  fw.pool = 0;
  fw.alloc_at_start = 100;
  const TaskId fw_id = g.AddTask(fw);
  Task bw = MakeTask("bw", 0, 1.0, TaskKind::kBackward);
  bw.pool = 0;
  bw.free_at_end = 100;
  const TaskId bw_id = g.AddTask(bw);
  g.AddEdge(fw_id, bw_id);

  EngineOptions opts;
  opts.pool_baselines = {50};
  const SimResult r = Engine::Run(g, opts);
  EXPECT_EQ(r.pools[0].baseline(), 50u);
  EXPECT_EQ(r.pools[0].peak(), 150u);
  EXPECT_EQ(r.pools[0].current(), 50u);  // back to baseline
  EXPECT_FALSE(r.AnyOom());
}

TEST(Engine, OomFlaggedWhenCapacityExceeded) {
  TaskGraph g;
  Task t = MakeTask("big", 0, 1.0);
  t.pool = 0;
  t.alloc_at_start = 1000;
  t.free_at_end = 1000;
  g.AddTask(t);
  EngineOptions opts;
  opts.pool_capacities = {500};
  const SimResult r = Engine::Run(g, opts);
  EXPECT_TRUE(r.AnyOom());
  EXPECT_EQ(r.MaxPeakMemory(), 1000u);
}

TEST(Engine, OverFreeThrows) {
  TaskGraph g;
  Task t = MakeTask("t", 0, 1.0);
  t.pool = 0;
  t.free_at_end = 10;  // never allocated
  g.AddTask(t);
  EXPECT_THROW(Engine::Run(g), Error);
}

TEST(Engine, UtilizationAccounting) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask("a", 0, 2.0, TaskKind::kForward));
  const TaskId b = g.AddTask(MakeTask("b", 1, 1.0, TaskKind::kTransfer));
  g.AddEdge(a, b);
  g.AddEdge(b, g.AddTask(MakeTask("c", 0, 1.0, TaskKind::kBackward)));
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
  EXPECT_DOUBLE_EQ(r.Utilization(0), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(r.ComputeUtilization(0), 3.0 / 4.0);
  // Transfers are not compute.
  EXPECT_DOUBLE_EQ(r.Utilization(1), 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(r.ComputeUtilization(1), 0.0);
}

TEST(Engine, ZeroDurationTasksComplete) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask("a", 0, 0.0));
  const TaskId b = g.AddTask(MakeTask("b", 0, 1.0));
  g.AddEdge(a, b);
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
}

TEST(Engine, DiamondDependency) {
  // a -> {b, c} -> d with b, c on separate resources.
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask("a", 0, 1.0));
  const TaskId b = g.AddTask(MakeTask("b", 1, 2.0));
  const TaskId c = g.AddTask(MakeTask("c", 2, 3.0));
  const TaskId d = g.AddTask(MakeTask("d", 0, 1.0));
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(b, d);
  g.AddEdge(c, d);
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.records[d].start, 4.0);
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto build = [] {
    TaskGraph g;
    for (int i = 0; i < 50; ++i) {
      g.AddTask(MakeTask("t" + std::to_string(i), i % 4, 0.5 + (i % 7) * 0.1));
    }
    for (int i = 0; i + 10 < 50; i += 3) g.AddEdge(i, i + 10);
    return g;
  };
  const TaskGraph g1 = build();
  const TaskGraph g2 = build();
  const SimResult r1 = Engine::Run(g1);
  const SimResult r2 = Engine::Run(g2);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.records[i].start, r2.records[i].start);
  }
}

TEST(TaskGraph, RejectsBadEdges) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask("a", 0, 1.0));
  EXPECT_THROW(g.AddEdge(a, a), Error);
  EXPECT_THROW(g.AddEdge(a, 99), Error);
  EXPECT_THROW(g.AddEdge(-1, a), Error);
}

TEST(TaskGraph, DuplicateEdgesCollapse) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask("a", 0, 1.0));
  const TaskId b = g.AddTask(MakeTask("b", 0, 1.0));
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  EXPECT_EQ(g.in_degree(b), 1);
  EXPECT_EQ(g.successors(a).size(), 1u);
}

TEST(TaskGraph, ResourceAndPoolCounts) {
  TaskGraph g;
  Task t = MakeTask("a", 3, 1.0);
  t.pool = 5;
  g.AddTask(t);
  EXPECT_EQ(g.num_resources(), 4);
  EXPECT_EQ(g.num_pools(), 6);
}

TEST(MemoryPool, TimelineRecordsTrajectory) {
  MemoryPool pool;
  pool.SetBaseline(10);
  pool.Allocate(1.0, 5);
  pool.Allocate(2.0, 5);
  pool.Free(3.0, 10);
  const auto& tl = pool.timeline();
  ASSERT_EQ(tl.size(), 4u);
  EXPECT_EQ(tl[0].bytes, 10u);
  EXPECT_EQ(tl[2].bytes, 20u);
  EXPECT_EQ(tl[3].bytes, 10u);
  EXPECT_EQ(pool.peak(), 20u);
}

TEST(MemoryPool, CoincidentUpdatesCoalesce) {
  MemoryPool pool;
  pool.Allocate(1.0, 5);
  pool.Free(1.0, 5);
  // Initial sample + one coalesced sample at t=1.
  EXPECT_EQ(pool.timeline().size(), 2u);
  EXPECT_EQ(pool.timeline().back().bytes, 0u);
}

}  // namespace
}  // namespace dapple::sim
