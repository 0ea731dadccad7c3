#include <gtest/gtest.h>

#include "sim/chrome_trace.h"

namespace dapple::sim {
namespace {

TaskGraph SmallGraph() {
  TaskGraph g;
  Task fw;
  fw.kind = TaskKind::kForward;
  fw.resource = 0;
  fw.duration = 0.002;
  fw.pool = 0;
  fw.alloc_at_start = 1000;
  fw.stage = 0;
  fw.microbatch = 0;
  fw.device = 0;
  const TaskId f = g.AddTask(fw);
  Task bw;
  bw.kind = TaskKind::kBackward;
  bw.resource = 0;
  bw.duration = 0.004;
  bw.pool = 0;
  bw.free_at_end = 1000;
  bw.stage = 0;
  bw.microbatch = 0;
  bw.device = 0;
  const TaskId b = g.AddTask(bw);
  g.AddEdge(f, b);
  return g;
}

TEST(ChromeTrace, ContainsCompleteEventsWithTimes) {
  const TaskGraph g = SmallGraph();
  const SimResult r = Engine::Run(g);
  const std::string json = ToChromeTrace(g, r);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"FW s0 m0 G0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"BW s0 m0 G0\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"FW\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"BW\""), std::string::npos);
  // FW duration 2000us, BW starts at 2000us.
  EXPECT_NE(json.find("\"dur\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2000"), std::string::npos);
}

TEST(ChromeTrace, MemoryCountersToggle) {
  const TaskGraph g = SmallGraph();
  const SimResult r = Engine::Run(g);
  EXPECT_NE(ToChromeTrace(g, r).find("pool 0 bytes"), std::string::npos);
}

TEST(ChromeTrace, ThreadMetadataPerResource) {
  TaskGraph g;
  for (int r = 0; r < 3; ++r) {
    Task t;
    t.resource = r;
    t.duration = 0.001;
    g.AddTask(t);
  }
  const SimResult result = Engine::Run(g);
  const std::string json = ToChromeTrace(g, result);
  EXPECT_NE(json.find("\"name\":\"resource 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"resource 2\""), std::string::npos);
}

/// A task of `kind` at stage 2, micro-batch 5 on device 7, with id 9.
Task Sample(TaskKind kind, TaskVariant variant = TaskVariant::kDefault) {
  Task t;
  t.id = 9;
  t.kind = kind;
  t.variant = variant;
  t.stage = 2;
  t.microbatch = 5;
  t.device = 7;
  return t;
}

TEST(TaskName, RendersEveryKindFromItsFields) {
  EXPECT_EQ(TaskName(Sample(TaskKind::kForward)), "FW s2 m5 G7");
  EXPECT_EQ(TaskName(Sample(TaskKind::kBackward)), "BW s2 m5 G7");
  EXPECT_EQ(TaskName(Sample(TaskKind::kBackward, TaskVariant::kBackwardInput)), "BI s2 m5 G7");
  EXPECT_EQ(TaskName(Sample(TaskKind::kBackwardWeight)), "BWW s2 m5 G7");
  EXPECT_EQ(TaskName(Sample(TaskKind::kRecompute)), "RC s2 m5 G7");
  // A transfer's stage is its upstream side, whichever way it moves.
  EXPECT_EQ(TaskName(Sample(TaskKind::kTransfer)), "TXf 2->3 m5");
  EXPECT_EQ(TaskName(Sample(TaskKind::kTransfer, TaskVariant::kGradient)), "TXb 3->2 m5");
  EXPECT_EQ(TaskName(Sample(TaskKind::kAllReduce)), "AR s2");
  EXPECT_EQ(TaskName(Sample(TaskKind::kApply)), "APPLY s2 G7");
  EXPECT_EQ(TaskName(Sample(TaskKind::kGeneric)), "task 9");
}

TEST(TaskName, WidestFieldsFitTheBuffer) {
  Task t = Sample(TaskKind::kBackwardWeight);
  t.stage = t.microbatch = t.device = -2147483647 - 1;
  EXPECT_EQ(TaskName(t), "BWW s-2147483648 m-2147483648 G-2147483648");
}

}  // namespace
}  // namespace dapple::sim
