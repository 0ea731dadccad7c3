#include "planner/bruteforce.h"

#include <limits>

#include "common/error.h"

namespace dapple::planner {

BruteForcePlanner::BruteForcePlanner(const model::ModelProfile& model,
                                     const topo::Cluster& cluster,
                                     BruteForceOptions options)
    : model_(&model), cluster_(&cluster), options_(options) {
  DAPPLE_CHECK_GT(options_.global_batch_size, 0);
  DAPPLE_CHECK_GT(options_.max_stages, 0);
}

void BruteForcePlanner::Recurse(int layer_begin, topo::AllocationState state,
                                std::vector<StagePlan>& prefix,
                                const LatencyEstimator& estimator, PlanResult& best,
                                long& evaluated) const {
  const int num_layers = model_->num_layers();

  // Option 1: close the plan with a final stage on any policy's placement
  // of any remaining device count.
  for (int m = 1; m <= state.num_free(); ++m) {
    for (topo::PlacementPolicy policy : topo::AllPlacementPolicies()) {
      const auto devices = state.Plan(policy, m);
      if (!devices) continue;
      ParallelPlan plan;
      plan.model = model_->name();
      plan.stages = prefix;
      StagePlan last;
      last.layer_begin = layer_begin;
      last.layer_end = num_layers;
      last.devices = *devices;
      last.policy = policy;
      plan.stages.push_back(std::move(last));
      const PlanEstimate est = estimator.Estimate(plan, options_.global_batch_size);
      ++evaluated;
      if (est.feasible &&
          (!best.estimate.feasible || est.latency < best.estimate.latency)) {
        best.plan = std::move(plan);
        best.estimate = est;
      }
    }
  }

  // Option 2: carve one more interior stage.
  if (static_cast<int>(prefix.size()) + 2 > options_.max_stages) return;
  for (int split = layer_begin + 1; split < num_layers; ++split) {
    for (int m = 1; m < state.num_free(); ++m) {
      for (topo::PlacementPolicy policy : topo::AllPlacementPolicies()) {
        const auto devices = state.Plan(policy, m);
        if (!devices) continue;
        StagePlan stage;
        stage.layer_begin = layer_begin;
        stage.layer_end = split;
        stage.devices = *devices;
        stage.policy = policy;
        prefix.push_back(std::move(stage));
        topo::AllocationState child = state;
        child.Commit(*devices);
        Recurse(split, std::move(child), prefix, estimator, best, evaluated);
        prefix.pop_back();
      }
    }
  }
}

PlanResult BruteForcePlanner::Plan() const {
  LatencyEstimator estimator(*model_, *cluster_, options_.latency);
  PlanResult best;
  best.estimate.feasible = false;
  best.estimate.latency = std::numeric_limits<TimeSec>::infinity();
  long evaluated = 0;
  std::vector<StagePlan> prefix;
  Recurse(0, topo::AllocationState(*cluster_), prefix, estimator, best, evaluated);
  best.stats.candidates_evaluated = evaluated;
  DAPPLE_CHECK(best.estimate.feasible)
      << "brute force found no feasible plan for " << model_->name();
  return best;
}

}  // namespace dapple::planner
