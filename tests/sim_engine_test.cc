#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "sim/engine.h"
#include "sim/graph.h"

namespace dapple::sim {
namespace {

Task MakeTask(ResourceId resource, TimeSec duration, TaskKind kind = TaskKind::kGeneric) {
  Task t;
  t.resource = resource;
  t.duration = duration;
  t.kind = kind;
  return t;
}

TEST(Engine, SingleTask) {
  TaskGraph g;
  g.AddTask(MakeTask(0, 2.0));
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_TRUE(r.records[0].executed);
  EXPECT_DOUBLE_EQ(r.records[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r.records[0].end, 2.0);
}

TEST(Engine, ChainRespectsDependencies) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask(0, 1.0));
  const TaskId b = g.AddTask(MakeTask(1, 1.0));
  const TaskId c = g.AddTask(MakeTask(0, 1.0));
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
  g.AddTask(MakeTask(0, 3.0));
  g.AddTask(MakeTask(1, 2.0));
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
  EXPECT_DOUBLE_EQ(r.records[1].start, 0.0);
}

TEST(Engine, SameResourceSerializes) {
  TaskGraph g;
  g.AddTask(MakeTask(0, 1.0));
  g.AddTask(MakeTask(0, 1.0));
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
}

TEST(Engine, PriorityBreaksReadyTies) {
  TaskGraph g;
  Task hi = MakeTask(0, 1.0);
  hi.priority = 0;
  Task lo = MakeTask(0, 1.0);
  lo.priority = 5;
  const TaskId lo_id = g.AddTask(lo);
  const TaskId hi_id = g.AddTask(hi);  // added second, but higher priority
  const SimResult r = Engine::Run(g);
  EXPECT_LT(r.records[hi_id].start, r.records[lo_id].start);
}

TEST(Engine, EqualPriorityFallsBackToId) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask(0, 1.0));
  const TaskId b = g.AddTask(MakeTask(0, 1.0));
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
    Task a = MakeTask(0, 1.0);
    a.priority = 5;
    const TaskId a_id = g.AddTask(a);
    Task b = MakeTask(1, 1.0);
    b.priority = 0;
    const TaskId b_id = g.AddTask(b);
    const TaskId x = g.AddTask(MakeTask(2, 1.0));
    const TaskId y = g.AddTask(MakeTask(2, 1.0));
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
    const TaskId a = g.AddTask(MakeTask(0, 1.0));
    const TaskId b = g.AddTask(MakeTask(1, 1.0));
    const TaskId x = g.AddTask(MakeTask(2, 1.0));
    const TaskId y = g.AddTask(MakeTask(2, 1.0));
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
  small.AddTask(MakeTask(0, 1.0));
  TaskGraph big;
  for (int i = 0; i < 40; ++i) {
    big.AddTask(MakeTask(i % 3, 0.25 + (i % 5) * 0.5));
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
  const TaskId a = g.AddTask(MakeTask(0, 1.0));
  const TaskId b = g.AddTask(MakeTask(0, 1.0));
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  EXPECT_THROW(Engine::Run(g), Error);
}

TEST(Engine, MemoryPoolTracksAllocFree) {
  TaskGraph g;
  Task fw = MakeTask(0, 1.0, TaskKind::kForward);
  fw.pool = 0;
  fw.alloc_at_start = 100;
  const TaskId fw_id = g.AddTask(fw);
  Task bw = MakeTask(0, 1.0, TaskKind::kBackward);
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
  Task t = MakeTask(0, 1.0);
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
  Task t = MakeTask(0, 1.0);
  t.pool = 0;
  t.free_at_end = 10;  // never allocated
  g.AddTask(t);
  EXPECT_THROW(Engine::Run(g), Error);
}

TEST(Engine, UtilizationAccounting) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask(0, 2.0, TaskKind::kForward));
  const TaskId b = g.AddTask(MakeTask(1, 1.0, TaskKind::kTransfer));
  g.AddEdge(a, b);
  g.AddEdge(b, g.AddTask(MakeTask(0, 1.0, TaskKind::kBackward)));
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
  EXPECT_DOUBLE_EQ(r.resources[0].busy, 3.0);
  EXPECT_DOUBLE_EQ(r.ComputeUtilization(0), 3.0 / 4.0);
  // Transfers are not compute.
  EXPECT_DOUBLE_EQ(r.resources[1].busy, 1.0);
  EXPECT_DOUBLE_EQ(r.ComputeUtilization(1), 0.0);
}

TEST(Engine, ZeroDurationTasksComplete) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask(0, 0.0));
  const TaskId b = g.AddTask(MakeTask(0, 1.0));
  g.AddEdge(a, b);
  const SimResult r = Engine::Run(g);
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
}

TEST(Engine, DiamondDependency) {
  // a -> {b, c} -> d with b, c on separate resources.
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask(0, 1.0));
  const TaskId b = g.AddTask(MakeTask(1, 2.0));
  const TaskId c = g.AddTask(MakeTask(2, 3.0));
  const TaskId d = g.AddTask(MakeTask(0, 1.0));
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
      g.AddTask(MakeTask(i % 4, 0.5 + (i % 7) * 0.1));
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
  const TaskId a = g.AddTask(MakeTask(0, 1.0));
  EXPECT_THROW(g.AddEdge(a, a), Error);
  EXPECT_THROW(g.AddEdge(a, 99), Error);
  EXPECT_THROW(g.AddEdge(-1, a), Error);
}

TEST(TaskGraph, DuplicateEdgesCollapse) {
  TaskGraph g;
  const TaskId a = g.AddTask(MakeTask(0, 1.0));
  const TaskId b = g.AddTask(MakeTask(0, 1.0));
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  EXPECT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.in_degree(a), 0);
  EXPECT_EQ(g.in_degree(b), 1);
}

TEST(TaskGraph, SuccessorsPastTheInlineSlotsKeepOrderWithoutDuplicates) {
  static_assert(TaskGraph::kInlineSuccessors == 4);
  TaskGraph g;
  g.Reserve(8);
  const TaskId src = g.AddTask(MakeTask(0, 1.0));
  std::vector<TaskId> dst;
  for (int i = 0; i < 7; ++i) {
    const TaskId id = g.AddTask(MakeTask(0, 1.0));
    EXPECT_EQ(id, i + 1);  // Reserve does not move ids
    dst.push_back(id);
  }
  EXPECT_TRUE(g.successors(src).empty());
  // Repeats land both inside the four in-place slots and after the spill.
  for (int i : {0, 1, 0, 2, 3, 1, 4, 3, 5, 0, 4, 6, 6, 2}) {
    g.AddEdge(src, dst[static_cast<std::size_t>(i)]);
  }
  const std::span<const TaskId> succ = g.successors(src);
  EXPECT_EQ(std::vector<TaskId>(succ.begin(), succ.end()), dst);
  for (TaskId d : dst) EXPECT_TRUE(g.successors(d).empty());

  EXPECT_EQ(g.in_degree(src), 0);
  for (TaskId d : dst) EXPECT_EQ(g.in_degree(d), 1);
}

TEST(TaskGraph, InDegreeMatchesSpilledSuccessorListsWithRepeatedEdges) {
  // Three sources fan out past the four in-place slots into six shared
  // targets; every edge is added twice, once on either side of the spill.
  TaskGraph g;
  std::vector<TaskId> src;
  std::vector<TaskId> dst;
  for (int i = 0; i < 3; ++i) src.push_back(g.AddTask(MakeTask(0, 1.0)));
  for (int i = 0; i < 6; ++i) dst.push_back(g.AddTask(MakeTask(0, 1.0)));
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < src.size(); ++s) {
      for (std::size_t d = s % 2; d < dst.size(); ++d) {
        g.AddEdge(src[s], dst[(d + s) % dst.size()]);
      }
    }
  }
  g.AddEdge(dst[0], dst[5]);  // one target is fed by another target too

  std::vector<int> counted(static_cast<std::size_t>(g.num_tasks()), 0);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    for (TaskId s : g.successors(t)) ++counted[static_cast<std::size_t>(s)];
  }
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(g.in_degree(t), counted[static_cast<std::size_t>(t)]) << t;
  }
  EXPECT_GT(g.successors(src[0]).size(), static_cast<std::size_t>(TaskGraph::kInlineSuccessors));
  EXPECT_EQ(g.in_degree(dst[5]), 4);
}

TEST(TaskGraph, ReserveKeepsIdsAndCopiesKeepSuccessors) {
  TaskGraph reserved;
  reserved.Reserve(100);
  TaskGraph plain;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(reserved.AddTask(MakeTask(0, 1.0)), plain.AddTask(MakeTask(0, 1.0)));
  }
  for (TaskId s = 1; s < 6; ++s) {
    reserved.AddEdge(0, s);
    plain.AddEdge(0, s);
  }
  const TaskGraph copy = reserved;
  for (TaskId t = 0; t < 6; ++t) {
    const std::span<const TaskId> a = copy.successors(t);
    const std::span<const TaskId> b = plain.successors(t);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << t;
  }
  EXPECT_EQ(copy.successors(0).size(), 5u);
}

TEST(TaskGraph, ResourceAndPoolCounts) {
  TaskGraph g;
  Task t = MakeTask(3, 1.0);
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
