// Pipeline executor: builds the task graph for a plan and runs the
// simulator over one training iteration. Summarizing the iteration into the
// metrics the paper reports (throughput, §VI-C speedup, peak memory,
// utilization, bubbles) is obs::BuildIterationReport's job.
#pragma once

#include "model/profile.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"
#include "topo/cluster.h"

namespace dapple::runtime {

/// Full artifacts of a run, for summaries, trace rendering and deep
/// assertions.
struct ExecutionDetail {
  BuiltPipeline pipeline;
  sim::SimResult result;
};

class PipelineExecutor {
 public:
  PipelineExecutor(const model::ModelProfile& model, const topo::Cluster& cluster,
                   const planner::ParallelPlan& plan, BuildOptions options);

  /// Builds and simulates one training iteration.
  ExecutionDetail RunDetailed() const;

 private:
  const model::ModelProfile* model_;
  const topo::Cluster* cluster_;
  const planner::ParallelPlan* plan_;
  BuildOptions options_;
};

}  // namespace dapple::runtime
