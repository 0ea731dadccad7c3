#include "dapple/dapple.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace dapple {

Session::Session(model::ModelProfile model, topo::Cluster cluster)
    : model_(std::move(model)), cluster_(std::move(cluster)) {}

model::ProfileReport Session::Profile() const {
  model::Profiler profiler(cluster_.device());
  return profiler.Report(model_);
}

planner::PlanResult Session::Plan(long global_batch_size,
                                  planner::PlannerOptions options) const {
  options.global_batch_size = global_batch_size;
  planner::PlanResult result;
  try {
    result = planner::DapplePlanner(model_, cluster_, options).Plan();
  } catch (const planner::NoFeasiblePlan&) {
    // Nothing fits without re-computation: re-plan in the paper's
    // Table VIII operating mode (checkpoint + replay on every stage), which
    // divides the activation footprint by roughly the stage depth. kAuto
    // already ran its own per-stage fallback and kAll already recomputed
    // everywhere, so both rethrow.
    if (options.recompute != planner::RecomputePolicy::kOff) throw;
    obs::MetricsRegistry::Global().counter("dapple.session.recompute_retries").Increment();
    options.recompute = planner::RecomputePolicy::kAll;
    result = planner::DapplePlanner(model_, cluster_, options).Plan();
  }

  // Candidates simulate under the schedule family and memory cap they were
  // planned for, so an analytic misfit shows up as OOM (-> infinite
  // latency) during re-ranking instead of silently passing.
  const runtime::BuildOptions build = runtime::BuildOptionsFor(options);
  auto simulate = [&](const planner::ParallelPlan& plan) -> TimeSec {
    const sim::SimResult result =
        runtime::PipelineExecutor(model_, cluster_, plan, build).RunDetailed().result;
    return result.AnyOom() ? std::numeric_limits<TimeSec>::infinity() : result.makespan;
  };

  // Re-rank the analytic top-k with the discrete-event simulator: the
  // formula-1 objective ignores internal bubbles and can misorder plans
  // that are within a few percent of each other; one simulated iteration
  // per alternative settles those ties exactly. The lowest index wins ties,
  // and when every alternative runs out of memory the analytic winner
  // (index 0) stands and refinement is skipped.
  TimeSec best_simulated = std::numeric_limits<TimeSec>::infinity();
  if (result.alternatives.empty()) {
    best_simulated = simulate(result.plan);
  } else {
    // The planner's pool rule: 0 threads share the process-wide pool the
    // search just ran on, n build their own (1 runs inline).
    std::optional<ThreadPool> own_pool;
    ThreadPool& pool = options.num_threads == 0
                           ? ThreadPool::Shared()
                           : own_pool.emplace(static_cast<std::size_t>(options.num_threads));
    const std::vector<TimeSec> simulated =
        pool.Map<TimeSec>(result.alternatives.size(), [&](std::size_t i) {
          return simulate(result.alternatives[i].first);
        });
    const auto best = static_cast<std::size_t>(
        std::min_element(simulated.begin(), simulated.end()) - simulated.begin());
    best_simulated = simulated[best];
    result.plan = result.alternatives[best].first;
    result.estimate = result.alternatives[best].second;
  }

  // Simulation-guided local refinement of the split positions: the DP
  // search memoizes on (boundary, allocation), which collapses
  // near-identical splits, so the exact optimum boundary (e.g. GNMT's 9:7
  // vs 10:6) may be a one-layer shift away from the analytic winner.
  if (result.plan.num_stages() > 1 && std::isfinite(best_simulated)) {
    const planner::DapplePlanner evaluator(model_, cluster_, options);
    bool improved = true;
    int rounds = 0;
    while (improved && rounds++ < 8) {
      improved = false;
      for (std::size_t b = 0; b + 1 < result.plan.stages.size(); ++b) {
        for (int delta : {-1, +1}) {
          planner::ParallelPlan candidate = result.plan;
          planner::StagePlan& lhs = candidate.stages[b];
          planner::StagePlan& rhs = candidate.stages[b + 1];
          const int boundary = lhs.layer_end + delta;
          if (boundary <= lhs.layer_begin || boundary >= rhs.layer_end) continue;
          lhs.layer_end = boundary;
          rhs.layer_begin = boundary;
          const TimeSec simulated = simulate(candidate);
          if (simulated < best_simulated) {
            best_simulated = simulated;
            result.estimate = evaluator.Evaluate(candidate);
            result.plan = std::move(candidate);
            improved = true;
            break;
          }
        }
        if (improved) break;
      }
    }
  }
  // The re-rank and the refinement may have replaced the planner's winner;
  // report the recompute flags of the plan actually returned.
  result.stats.recompute_stages = 0;
  for (const planner::StagePlan& s : result.plan.stages) {
    result.stats.recompute_stages += s.recompute ? 1 : 0;
  }
  return result;
}

obs::IterationReport Session::Run(const planner::ParallelPlan& plan, long global_batch_size,
                                  runtime::BuildOptions options) const {
  options.global_batch_size = global_batch_size;
  return obs::RunIteration(model_, cluster_, plan, options);
}

obs::IterationReport Session::PlanAndRun(long global_batch_size) const {
  const planner::PlanResult planned = Plan(global_batch_size);
  return Run(planned.plan, global_batch_size);
}

}  // namespace dapple
