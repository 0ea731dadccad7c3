// Umbrella header and top-level facade for the DAPPLE library.
//
// Typical use (see examples/quickstart.cc):
//
//   auto model = dapple::model::MakeBert48();
//   auto cluster = dapple::topo::MakeConfigA(/*num_servers=*/2);
//   dapple::Session session(model, cluster);
//   auto planned = session.Plan(/*global_batch_size=*/64);
//   auto report = session.Run(planned.plan, /*global_batch_size=*/64);
//
// The Session wires the three paper components together: the profiler
// (model statistics), the planner (partition/replication/placement DP) and
// the runtime (early-backward-scheduled pipelined execution on the
// simulator).
#pragma once

#include "check/fuzz.h"
#include "check/validator.h"
#include "comm/cost_model.h"
#include "fault/degrade.h"
#include "fault/recovery.h"
#include "fault/report.h"
#include "fault/script.h"
#include "model/profile.h"
#include "model/profiler.h"
#include "model/zoo.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "planner/dp_baseline.h"
#include "planner/dp_planner.h"
#include "planner/latency.h"
#include "planner/pipedream_planner.h"
#include "planner/torchgpipe_planner.h"
#include "planner/plan.h"
#include "planner/plan_io.h"
#include "runtime/executor.h"
#include "runtime/graph_builder.h"
#include "runtime/schedule.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "topo/assignment.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple {

/// End-to-end facade: profile -> plan -> run for one (model, cluster).
class Session {
 public:
  Session(model::ModelProfile model, topo::Cluster cluster);

  const model::ModelProfile& model() const { return model_; }
  const topo::Cluster& cluster() const { return cluster_; }

  /// Table II style summary of the model on this cluster's device.
  model::ProfileReport Profile() const;

  /// Runs the DAPPLE planner at a global batch size, then re-ranks its
  /// alternatives and refines the winner's boundaries by simulating them
  /// under the requested schedule family and memory cap. If no plan fits
  /// device memory without re-computation, re-plans with re-computation on
  /// every stage (the paper's Table VIII operating mode); the flags ride
  /// the returned plan.
  planner::PlanResult Plan(long global_batch_size,
                           planner::PlannerOptions options = {}) const;

  /// Executes one training iteration of a plan on the simulated cluster.
  obs::IterationReport Run(const planner::ParallelPlan& plan, long global_batch_size,
                           runtime::BuildOptions options = {}) const;

  /// Convenience: plan then run at the same global batch size.
  obs::IterationReport PlanAndRun(long global_batch_size) const;

 private:
  model::ModelProfile model_;
  topo::Cluster cluster_;
};

}  // namespace dapple
