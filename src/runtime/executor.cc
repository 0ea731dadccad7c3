#include "runtime/executor.h"

namespace dapple::runtime {

PipelineExecutor::PipelineExecutor(const model::ModelProfile& model,
                                   const topo::Cluster& cluster,
                                   const planner::ParallelPlan& plan, BuildOptions options)
    : model_(&model), cluster_(&cluster), plan_(&plan), options_(options) {}

ExecutionDetail PipelineExecutor::RunDetailed() const {
  GraphBuilder builder(*model_, *cluster_, *plan_, options_);
  ExecutionDetail detail;
  detail.pipeline = builder.Build();
  detail.result = sim::Engine::Run(detail.pipeline.graph, detail.pipeline.engine_options);
  return detail;
}

}  // namespace dapple::runtime
