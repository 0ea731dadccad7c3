// Layer replays for traced runs. After the timed loop has ended, sampled
// operations are replayed through the layer entry points they compose
// (graph build, event loop, SoA flatten and run, iteration report, JSON),
// each call under its own span whose parent is the operation's span. The
// loop itself is never slowed by a replay, and registry deltas taken
// around the loop are not polluted by one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/profile.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "sim/soa.h"
#include "topo/cluster.h"
#include "trace.h"
#include "workloads.h"

namespace dapple::e2e {

/// One operation of the timed loop that got a span.
struct SampledOp {
  std::int64_t op = 0;
  std::int64_t span = 0;
  /// Index of the operation's input (request line, instance, pass, call).
  std::size_t input = 0;
};

class Replayer {
 public:
  /// Replays stop once they have taken `budget_seconds` in total.
  Replayer(SpanBuffer& spans, double budget_seconds);

  bool HasBudget() const;

  /// Builds and simulates one pipeline: runtime.build, sim.engine,
  /// sim.flatten and sim.soa spans, plus obs.report and obs.json when
  /// `with_report`.
  void Pipeline(const SampledOp& op, const model::ModelProfile& model,
                const topo::Cluster& cluster, const planner::ParallelPlan& plan,
                const runtime::BuildOptions& options, bool with_report);

  /// Adds runtime.tasks and obs.json_bytes to the result.
  void Finish(RunResult& result) const;

 private:
  SpanBuffer& spans_;
  Clock::time_point start_ = Clock::now();
  double budget_seconds_;
  sim::SoaGraph soa_graph_;
  sim::SoaEngine soa_engine_;
  std::vector<double> graph_tasks_;
  std::vector<double> json_bytes_;
};

/// Per-layer metrics read from registry deltas over the timed loop:
/// planner.{search_s,candidates,cache_hit_rate,cache_compute_s,
/// estimator_calls}, sim.tasks_executed and fault.replan_s.
void AddRegistryLayers(RunResult& result, const RegistrySnapshot& before,
                       const RegistrySnapshot& after);

}  // namespace dapple::e2e
