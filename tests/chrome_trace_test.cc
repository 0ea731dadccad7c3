#include <gtest/gtest.h>

#include "sim/chrome_trace.h"

namespace dapple::sim {
namespace {

TaskGraph SmallGraph() {
  TaskGraph g;
  Task fw;
  fw.name = "FW s0 m0";
  fw.kind = TaskKind::kForward;
  fw.resource = 0;
  fw.duration = 0.002;
  fw.pool = 0;
  fw.alloc_at_start = 1000;
  fw.stage = 0;
  fw.microbatch = 0;
  const TaskId f = g.AddTask(std::move(fw));
  Task bw;
  bw.name = "BW s0 m0";
  bw.kind = TaskKind::kBackward;
  bw.resource = 0;
  bw.duration = 0.004;
  bw.pool = 0;
  bw.free_at_end = 1000;
  bw.stage = 0;
  bw.microbatch = 0;
  const TaskId b = g.AddTask(std::move(bw));
  g.AddEdge(f, b);
  return g;
}

TEST(ChromeTrace, ContainsCompleteEventsWithTimes) {
  const TaskGraph g = SmallGraph();
  const SimResult r = Engine::Run(g);
  const std::string json = ToChromeTrace(g, r);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"FW s0 m0\""), std::string::npos);
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

TEST(ChromeTrace, EscapesSpecialCharacters) {
  TaskGraph g;
  Task t;
  t.name = "weird \"name\"\nline";
  t.resource = 0;
  t.duration = 0.001;
  g.AddTask(std::move(t));
  const SimResult r = Engine::Run(g);
  const std::string json = ToChromeTrace(g, r);
  EXPECT_NE(json.find("weird \\\"name\\\"\\nline"), std::string::npos);
}

TEST(ChromeTrace, ThreadMetadataPerResource) {
  TaskGraph g;
  for (int r = 0; r < 3; ++r) {
    Task t;
    t.name = "t" + std::to_string(r);
    t.resource = r;
    t.duration = 0.001;
    g.AddTask(std::move(t));
  }
  const SimResult result = Engine::Run(g);
  const std::string json = ToChromeTrace(g, result);
  EXPECT_NE(json.find("\"name\":\"resource 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"resource 2\""), std::string::npos);
}

}  // namespace
}  // namespace dapple::sim
