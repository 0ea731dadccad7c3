// PipeDream's planner (Narayanan et al., SOSP'19), reimplemented as the
// paper's §VI-F baseline. PipeDream optimizes asynchronous steady-state
// throughput: it minimizes the *maximum* per-stage time (compute divided by
// the stage's replica count, plus incoming activation transfer), via a
// hierarchical dynamic program with contiguous device assignment. It does
// not model synchronous pipeline latency, AllReduce cost at iteration end,
// or the stage-count bubble penalty — precisely the blind spots DAPPLE's
// planner addresses. We run its strategies under the DAPPLE runtime, as
// the paper does, to produce Table VII / Fig. 13.
#pragma once

#include "model/profile.h"
#include "planner/plan.h"
#include "topo/cluster.h"

namespace dapple::planner {

struct PipedreamOptions {
  /// Micro-batch size used to weigh per-stage costs (PipeDream balances at
  /// the training micro-batch). 0 = the model's profile micro-batch.
  int micro_batch_size = 0;
};

class PipedreamPlanner {
 public:
  PipedreamPlanner(const model::ModelProfile& model, const topo::Cluster& cluster,
                   PipedreamOptions options = {});

  /// Runs the min-max balancing DP over all G devices and returns the
  /// resulting plan (stages in layer order, devices assigned contiguously).
  ParallelPlan Plan() const;

  /// The DP objective value of a plan: max over stages of per-replica
  /// stage time (compute/replicas + inbound activation transfer).
  double Bottleneck(const ParallelPlan& plan) const;

 private:
  double StageTime(int layer_begin, int layer_end, int replicas) const;

  const model::ModelProfile* model_;
  const topo::Cluster* cluster_;
  PipedreamOptions options_;
};

}  // namespace dapple::planner
