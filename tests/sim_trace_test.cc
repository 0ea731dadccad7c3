#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "model/zoo.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "topo/cluster.h"

namespace dapple::sim {
namespace {

TaskGraph TwoStagePipeline() {
  TaskGraph g;
  // GPU0: FW m0, FW m1; GPU1: FW m0, BW m0, FW m1, BW m1; GPU0: BW...
  auto add = [&](TaskKind kind, ResourceId res, int micro, TimeSec dur) {
    Task t;
    t.kind = kind;
    t.resource = res;
    t.stage = res;
    t.microbatch = micro;
    t.duration = dur;
    return g.AddTask(std::move(t));
  };
  const TaskId f00 = add(TaskKind::kForward, 0, 0, 1.0);
  const TaskId f01 = add(TaskKind::kForward, 0, 1, 1.0);
  const TaskId f10 = add(TaskKind::kForward, 1, 0, 1.0);
  const TaskId b10 = add(TaskKind::kBackward, 1, 0, 1.0);
  const TaskId b00 = add(TaskKind::kBackward, 0, 0, 1.0);
  g.AddEdge(f00, f01);
  g.AddEdge(f00, f10);
  g.AddEdge(f10, b10);
  g.AddEdge(b10, b00);
  return g;
}

TEST(Trace, GanttHasOneLanePerResource) {
  const TaskGraph g = TwoStagePipeline();
  const SimResult r = Engine::Run(g);
  const std::string gantt = RenderGantt(g, r, 40);
  EXPECT_NE(gantt.find("R0 "), std::string::npos);
  EXPECT_NE(gantt.find("R1 "), std::string::npos);
  // Forward glyphs are digits, backward glyphs letters.
  EXPECT_NE(gantt.find('0'), std::string::npos);
  EXPECT_NE(gantt.find('a'), std::string::npos);
}

TEST(Trace, GanttWidthClamped) {
  const TaskGraph g = TwoStagePipeline();
  const SimResult r = Engine::Run(g);
  // Absurdly small width must not crash or divide by zero.
  const std::string gantt = RenderGantt(g, r, 1);
  EXPECT_FALSE(gantt.empty());
}

TEST(Trace, MemoryTimelineShowsPeakAndBaseline) {
  MemoryPool pool;
  pool.SetBaseline(1_GiB);
  pool.Allocate(1.0, 1_GiB);
  pool.Free(2.0, 1_GiB);
  const std::string plot = RenderMemoryTimeline(pool, 3.0, 40, 4);
  EXPECT_NE(plot.find("peak 2.0GB"), std::string::npos);
  EXPECT_NE(plot.find("baseline 1.0GB"), std::string::npos);
  EXPECT_NE(plot.find('#'), std::string::npos);
}

TEST(Trace, MemoryTimelineEmptyPool) {
  MemoryPool pool;
  const std::string plot = RenderMemoryTimeline(pool, 1.0);
  EXPECT_NE(plot.find("peak 0B"), std::string::npos);
}

TEST(Trace, GlyphsForAllKinds) {
  TaskGraph g;
  int res = 0;
  for (TaskKind kind : {TaskKind::kForward, TaskKind::kBackward, TaskKind::kRecompute,
                        TaskKind::kTransfer, TaskKind::kAllReduce, TaskKind::kApply}) {
    Task t;
    t.kind = kind;
    t.resource = res++;
    t.duration = 1.0;
    t.microbatch = 3;
    g.AddTask(std::move(t));
  }
  const SimResult r = Engine::Run(g);
  const std::string gantt = RenderGantt(g, r, 20);
  EXPECT_NE(gantt.find('3'), std::string::npos);   // FW micro 3
  EXPECT_NE(gantt.find('d'), std::string::npos);   // BW micro 3 -> 'd'
  EXPECT_NE(gantt.find('r'), std::string::npos);   // recompute
  EXPECT_NE(gantt.find('-'), std::string::npos);   // transfer
  EXPECT_NE(gantt.find('#'), std::string::npos);   // allreduce
  EXPECT_NE(gantt.find('='), std::string::npos);   // apply
}

TEST(Trace, SplitBackwardGanttDrawsWeightHalvesUppercase) {
  // A two-stage 2BP pipeline: every BWW task must get a glyph of its own.
  const auto m = model::MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 1000, 1);
  const auto cluster = topo::MakeConfigB(2);
  planner::ParallelPlan plan;
  plan.model = m.name();
  planner::StagePlan first;
  first.layer_begin = 0;
  first.layer_end = 2;
  first.devices = topo::DeviceSet::Range(0, 1);
  planner::StagePlan second = first;
  second.layer_begin = 2;
  second.layer_end = 4;
  second.devices = topo::DeviceSet::Range(1, 1);
  plan.stages = {first, second};
  runtime::BuildOptions options;
  options.global_batch_size = 8;
  options.schedule.kind = runtime::ScheduleKind::kDappleSplitBw;
  const runtime::BuiltPipeline built = runtime::GraphBuilder(m, cluster, plan, options).Build();
  const SimResult r = Engine::Run(built.graph, built.engine_options);
  const std::string gantt = RenderGantt(built.graph, r, 200);
  // The lane bodies, without the "R<n> |" labels.
  std::string lanes;
  std::istringstream rows(gantt);
  for (std::string row; std::getline(rows, row);) {
    const std::size_t open = row.find('|');
    if (open != std::string::npos) lanes += row.substr(open + 1);
  }
  EXPECT_EQ(lanes.find('?'), std::string::npos) << gantt;
  EXPECT_NE(lanes.find('A'), std::string::npos) << gantt;  // BWW of micro-batch 0
  EXPECT_NE(lanes.find('a'), std::string::npos) << gantt;  // its BI half
}

TEST(TaskKinds, ComputeClassification) {
  EXPECT_TRUE(IsComputeKind(TaskKind::kForward));
  EXPECT_TRUE(IsComputeKind(TaskKind::kBackward));
  EXPECT_TRUE(IsComputeKind(TaskKind::kRecompute));
  EXPECT_TRUE(IsComputeKind(TaskKind::kApply));
  EXPECT_FALSE(IsComputeKind(TaskKind::kTransfer));
  EXPECT_FALSE(IsComputeKind(TaskKind::kAllReduce));
}

}  // namespace
}  // namespace dapple::sim
