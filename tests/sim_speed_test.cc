// Fault-window arithmetic in the engine: piecewise-constant resource speed
// profiles (sim/engine.h). Covers the FinishTime integral directly — a task
// spanning a slowdown boundary is split and re-costed segment by segment —
// and the engine-level fail-stop semantics: a crashed device pins its tasks
// while independent work (including an in-flight transfer on the link into
// the dead device) drains normally.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "sim/engine.h"
#include "sim/graph.h"

namespace dapple::sim {
namespace {

ResourceSpeedProfile Profile(ResourceId r, std::vector<SpeedSegment> segments) {
  ResourceSpeedProfile p;
  p.resource = r;
  p.segments = std::move(segments);
  return p;
}

TEST(FinishTimeTest, NoSegmentsIsUnitSpeed) {
  EXPECT_DOUBLE_EQ(FinishTime(Profile(0, {}), 1.5, 4.0), 5.5);
}

TEST(FinishTimeTest, ZeroWorkFinishesAtStart) {
  EXPECT_DOUBLE_EQ(FinishTime(Profile(0, {{2.0, 0.5}}), 3.0, 0.0), 3.0);
}

// The satellite case: work 4 started at 0 under a 0.5x slowdown beginning at
// t = 2 must be split at the boundary — 2 units at speed 1, then 2 units at
// speed 0.5 — and finish at 6, not at 4 (ignoring the fault) or 8 (pricing
// the whole task at the degraded speed).
TEST(FinishTimeTest, TaskSpanningSlowdownBoundaryIsSplitAndRecosted) {
  EXPECT_DOUBLE_EQ(FinishTime(Profile(0, {{2.0, 0.5}}), 0.0, 4.0), 6.0);
}

TEST(FinishTimeTest, SpeedRestoresAtWindowEnd) {
  // [0,2) at 1.0 -> 2 work; [2,4) at 0.5 -> 1 work; remainder at 1.0.
  EXPECT_DOUBLE_EQ(FinishTime(Profile(0, {{2.0, 0.5}, {4.0, 1.0}}), 0.0, 4.0), 5.0);
}

TEST(FinishTimeTest, StartInsideWindowPaysTheDegradedRate) {
  EXPECT_DOUBLE_EQ(FinishTime(Profile(0, {{2.0, 0.5}}), 3.0, 1.0), 5.0);
}

TEST(FinishTimeTest, StartAfterLastSegmentUsesItsSpeedForever) {
  EXPECT_DOUBLE_EQ(FinishTime(Profile(0, {{1.0, 0.5}}), 4.0, 2.0), 8.0);
}

TEST(FinishTimeTest, SpeedupSegmentsShortenTheTask) {
  // Residual profiles after a replan can exceed 1.0 (the baked slowdown
  // ended); the integral must handle >1x symmetrically.
  EXPECT_DOUBLE_EQ(FinishTime(Profile(0, {{0.0, 2.0}}), 0.0, 4.0), 2.0);
}

TEST(FinishTimeTest, TrailingZeroSpeedPinsRemainingWorkForever) {
  EXPECT_TRUE(std::isinf(FinishTime(Profile(0, {{3.0, 0.0}}), 0.0, 5.0)));
}

TEST(FinishTimeTest, ZeroSpeedWindowWithRecoveryStallsThenResumes) {
  // [0,3): 3 work; [3,5): nothing; remaining 2 after t = 5.
  EXPECT_DOUBLE_EQ(FinishTime(Profile(0, {{3.0, 0.0}, {5.0, 1.0}}), 0.0, 5.0), 7.0);
}

// --- Engine-level behavior -------------------------------------------------

Task MakeTask(TaskKind kind, ResourceId resource, TimeSec duration) {
  Task t;
  t.kind = kind;
  t.resource = resource;
  t.duration = duration;
  return t;
}

TEST(EngineSpeedTest, ProfiledTaskIsRecostedAcrossTheBoundary) {
  TaskGraph graph;
  const TaskId a = graph.AddTask(MakeTask(TaskKind::kForward, 0, 4.0));
  EngineOptions options;
  options.resource_speeds = {Profile(0, {{2.0, 0.5}})};
  const SimResult result = Engine::Run(graph, options);
  ASSERT_TRUE(result.completed);
  EXPECT_DOUBLE_EQ(result.records[a].start, 0.0);
  EXPECT_DOUBLE_EQ(result.records[a].end, 6.0);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);
}

TEST(EngineSpeedTest, UnprofiledResourcesKeepFixedDurationsBitForBit) {
  TaskGraph graph;
  const TaskId a = graph.AddTask(MakeTask(TaskKind::kForward, 0, 0.3));
  const TaskId b = graph.AddTask(MakeTask(TaskKind::kForward, 1, 0.7));
  graph.AddEdge(a, b);
  EngineOptions options;
  options.resource_speeds = {Profile(1, {{10.0, 0.5}})};  // never reached
  const SimResult result = Engine::Run(graph, options);
  ASSERT_TRUE(result.completed);
  // Resource 0 has no profile: end must be exactly start + duration.
  EXPECT_EQ(result.records[a].end, result.records[a].start + 0.3);
  EXPECT_EQ(result.records[b].end, result.records[b].start + 0.7);
}

// A fail-stop crash on the destination device must not leak into the link:
// the transfer in flight completes and releases the channel, the dependent
// compute on the dead device pins (started, never executed), and work on
// the surviving device drains to completion.
TEST(EngineSpeedTest, CrashMidTransferReleasesTheLinkAndPinsTheConsumer) {
  // Resources: 0 = surviving device, 1 = link, 2 = crashing device.
  TaskGraph graph;
  const TaskId fw = graph.AddTask(MakeTask(TaskKind::kForward, 0, 1.0));
  const TaskId xfer = graph.AddTask(MakeTask(TaskKind::kTransfer, 1, 2.0));
  const TaskId consumer = graph.AddTask(MakeTask(TaskKind::kForward, 2, 1.0));
  const TaskId survivor = graph.AddTask(MakeTask(TaskKind::kForward, 0, 5.0));
  graph.AddEdge(fw, xfer);
  graph.AddEdge(xfer, consumer);
  graph.AddEdge(fw, survivor);

  EngineOptions options;
  options.allow_incomplete = true;
  // Crash at t = 2, in the middle of the transfer window [1, 3).
  options.resource_speeds = {Profile(2, {{2.0, 0.0}})};
  const SimResult result = Engine::Run(graph, options);

  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.tasks_unfinished, 1);
  // The link is unaffected: the in-flight transfer runs [1, 3) and releases.
  EXPECT_TRUE(result.records[xfer].executed);
  EXPECT_DOUBLE_EQ(result.records[xfer].end, 3.0);
  // The consumer occupies the dead device but never finishes.
  EXPECT_TRUE(result.records[consumer].started);
  EXPECT_FALSE(result.records[consumer].executed);
  EXPECT_TRUE(std::isinf(result.records[consumer].end));
  // Independent work on the surviving device drains normally.
  EXPECT_TRUE(result.records[survivor].executed);
  EXPECT_DOUBLE_EQ(result.records[survivor].end, 6.0);
}

TEST(EngineSpeedTest, PinnedTasksThrowWithoutAllowIncomplete) {
  TaskGraph graph;
  graph.AddTask(MakeTask(TaskKind::kForward, 0, 1.0));
  EngineOptions options;
  options.resource_speeds = {Profile(0, {{0.0, 0.0}})};
  EXPECT_THROW(Engine::Run(graph, options), Error);
}

TEST(EngineSpeedTest, ProfiledRunsAreDeterministic) {
  auto run = [] {
    TaskGraph graph;
    const TaskId a = graph.AddTask(MakeTask(TaskKind::kForward, 0, 1.5));
    const TaskId b = graph.AddTask(MakeTask(TaskKind::kBackward, 0, 2.5));
    graph.AddEdge(a, b);
    EngineOptions options;
    options.resource_speeds = {Profile(0, {{1.0, 0.25}, {9.0, 1.0}})};
    return Engine::Run(graph, options);
  };
  const SimResult first = run();
  const SimResult second = run();
  ASSERT_EQ(first.records.size(), second.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_EQ(first.records[i].start, second.records[i].start);
    EXPECT_EQ(first.records[i].end, second.records[i].end);
  }
  EXPECT_EQ(first.makespan, second.makespan);
}

}  // namespace
}  // namespace dapple::sim
