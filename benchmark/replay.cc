#include "replay.h"

#include "obs/report.h"
#include "sim/engine.h"

namespace dapple::e2e {

Replayer::Replayer(SpanBuffer& spans, double budget_seconds)
    : spans_(spans), budget_seconds_(budget_seconds) {}

bool Replayer::HasBudget() const {
  return SecondsBetween(start_, Clock::now()) < budget_seconds_;
}

void Replayer::Pipeline(const SampledOp& op, const model::ModelProfile& model,
                        const topo::Cluster& cluster, const planner::ParallelPlan& plan,
                        const runtime::BuildOptions& options, bool with_report) {
  const runtime::BuiltPipeline built = spans_.Time("runtime.build", op.op, op.span, [&] {
    return runtime::GraphBuilder(model, cluster, plan, options).Build();
  });
  graph_tasks_.push_back(built.graph.num_tasks());
  const sim::SimResult result = spans_.Time("sim.engine", op.op, op.span, [&] {
    return sim::Engine::Run(built.graph, built.engine_options);
  });
  spans_.Time("sim.flatten", op.op, op.span, [&] { soa_graph_.Assign(built.graph); });
  spans_.Time("sim.soa", op.op, op.span,
              [&] { return soa_engine_.Simulate(soa_graph_, built.engine_options); });
  if (!with_report) return;
  const obs::IterationReport report = spans_.Time(
      "obs.report", op.op, op.span, [&] { return obs::BuildIterationReport(built, result); });
  const std::string json =
      spans_.Time("obs.json", op.op, op.span, [&] { return obs::ToJson(report); });
  json_bytes_.push_back(static_cast<double>(json.size()));
}

void Replayer::Finish(RunResult& result) const {
  result.layers["runtime.tasks"] = Median(graph_tasks_);
  result.layers["obs.json_bytes"] = Median(json_bytes_);
}

void AddRegistryLayers(RunResult& result, const RegistrySnapshot& before,
                       const RegistrySnapshot& after) {
  auto delta = [&](const char* name) { return after.Delta(before, name); };
  result.layers["planner.search_s"] = delta("planner.parallel.wall_seconds");
  result.layers["planner.candidates"] = delta("planner.candidates_evaluated");
  const double hits = delta("planner.cache.hits");
  const double lookups = hits + delta("planner.cache.misses");
  result.layers["planner.cache_hit_rate"] = lookups > 0.0 ? hits / lookups : 0.0;
  result.layers["planner.cache_compute_s"] = delta("planner.cache.compute_seconds");
  result.layers["planner.estimator_calls"] = delta("planner.estimator_calls");
  result.layers["sim.tasks_executed"] = delta("sim.tasks_executed");
  result.layers["fault.replan_s"] = delta("fault.replan.wall_seconds");
}

}  // namespace dapple::e2e
