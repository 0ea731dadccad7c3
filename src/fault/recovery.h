// Recovery-policy experiments: run a training timeline iteration by
// iteration under a fault script and measure what each policy salvages.
//
// Four policies, in increasing sophistication:
//   kSyncStall         — do nothing. Synchronous training runs at the
//                        straggler's pace; a fail-stop crash halts the job
//                        for good (an outage with a rejoin merely freezes
//                        it for the outage's duration).
//   kCheckpointRestart — checkpoint every N iterations (paying a cost),
//                        and on a crash roll back to the last checkpoint,
//                        pay a restore cost, and continue on a structurally
//                        remapped plan (same layer split, fewer devices).
//   kElasticReplan     — on any detected cluster-state change, re-run the
//                        DAPPLE planner against the degraded cluster (dead
//                        servers excluded, stragglers as speed multipliers)
//                        and continue with the new plan. The paper's DP
//                        planner is cheap enough to re-run online. Has no
//                        state-migration path onto *new* hardware, so its
//                        control-plane view treats crashes as permanent
//                        even when the script later rejoins the device.
//   kElasticUp         — elastic replan that also scales *up*: when a
//                        crashed device rejoins, re-run the planner on the
//                        grown cluster and migrate via a checkpoint-bounded
//                        cutover — pay replan + restore and roll back to
//                        the last periodic checkpoint, so a scale-up never
//                        loses more than checkpoint_period iterations. A
//                        crash-time replan whose resume instant already
//                        sees a rejoined device lands on a grown cluster
//                        too, so it is a scale-up and pays the same.
//
// Everything is simulated time: detection latency, restore and replan costs
// are configured constants, so identical (plan, script, options) produce a
// byte-identical report.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fault/degrade.h"
#include "fault/script.h"
#include "model/profile.h"
#include "planner/dp_planner.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "topo/cluster.h"

namespace dapple::fault {

enum class RecoveryPolicy { kSyncStall, kCheckpointRestart, kElasticReplan, kElasticUp };

const char* ToString(RecoveryPolicy policy);
/// Parses "stall" / "checkpoint" / "replan" / "elastic-up"; throws
/// dapple::Error otherwise.
RecoveryPolicy ParseRecoveryPolicy(const std::string& name);

/// Every policy, in enum order (sweeps and CLIs iterate this).
std::vector<RecoveryPolicy> AllRecoveryPolicies();

struct FaultOptions {
  /// Simulated experiment length. 0 = 25x the healthy iteration time.
  TimeSec horizon = 0.0;
  /// Safety cap on simulated iterations.
  int max_iterations = 1000;
  /// Checkpoint every N iterations (checkpoint–restart and elastic-up,
  /// which needs a recent checkpoint to bound its scale-up cutover).
  int checkpoint_period = 5;
  TimeSec checkpoint_cost = 0.2;
  TimeSec restore_cost = 2.0;
  /// Time from a fail-stop to the control plane noticing it.
  TimeSec detect_latency = 0.5;
  /// Simulated cost of one planner run plus state migration (elastic
  /// replan). A constant, not measured wall clock, for reproducibility.
  TimeSec replan_cost = 1.0;
  /// Planner configuration for elastic replans.
  planner::PlannerOptions planner;
  /// Pipeline build configuration (micro-batching, schedule).
  runtime::BuildOptions build;
  /// Called for every pipeline the experiment runs (initial, remapped and
  /// replanned), with the cluster it was built for. check/fuzz hangs the
  /// ScheduleValidator here; fault itself must not depend on check.
  std::function<void(const runtime::BuiltPipeline&, const planner::ParallelPlan&,
                     const topo::Cluster&)>
      pipeline_observer;
};

/// One row of the experiment timeline, in absolute simulated time.
struct TimelineRow {
  /// "iteration" | "checkpoint" | "restore" | "replan" | "scale-up" | "stall"
  std::string kind;
  TimeSec start = 0.0;
  TimeSec end = 0.0;
  int iteration = -1;  // completed-iteration index; -1 for non-iteration rows
  std::string note;
};

struct FaultReport {
  RecoveryPolicy policy = RecoveryPolicy::kSyncStall;
  std::string model;
  std::string cluster;
  std::string initial_plan;
  std::string final_plan;
  FaultScript script;
  long global_batch_size = 0;
  TimeSec horizon = 0.0;

  TimeSec healthy_iteration_time = 0.0;
  /// Samples/sec with no faults.
  double healthy_throughput = 0.0;

  int iterations_completed = 0;
  /// Samples/sec actually achieved over the horizon — the headline metric.
  double goodput = 0.0;
  /// 1 - goodput / healthy_throughput.
  double goodput_loss = 0.0;
  /// First fault onset to the end of the first iteration that runs clean
  /// under the policy's final configuration; +inf when that never happens
  /// (sync-stall after a crash, or a persistent straggler it cannot dodge).
  TimeSec time_to_recover = 0.0;
  bool recovered = false;
  /// Samples/sec from the start of the first recovered iteration to the end
  /// of the horizon; 0 when never recovered.
  double post_fault_throughput = 0.0;

  int replans = 0;
  int checkpoints = 0;
  int restores = 0;
  /// Iterations whose work was thrown away (rollback or crash abort).
  int iterations_lost = 0;
  /// Elastic-up only: growth cutovers taken (a replan onto a grown cluster,
  /// at an iteration boundary or after a crash).
  int scale_ups = 0;
  /// Elastic-up only: the largest rollback any single scale-up cutover paid,
  /// in iterations — bounded by checkpoint_period by construction.
  int max_scale_up_rollback = 0;

  std::vector<TimelineRow> timeline;
};

/// Runs the iteration loop for one policy. The plan is the healthy-cluster
/// plan the job started with (typically the DAPPLE planner's winner).
/// Elastic policies run the planner once per distinct degraded cluster and
/// reuse its answer when the experiment returns to that cluster.
/// Deterministic: no wall clock, no global state.
FaultReport RunFaultExperiment(const model::ModelProfile& model, const topo::Cluster& cluster,
                               const planner::ParallelPlan& plan, const FaultScript& script,
                               RecoveryPolicy policy, const FaultOptions& options);

/// Runs one experiment per policy on a ThreadPool of `sim_threads` workers
/// (1 = inline serial, 0 = hardware concurrency). Each experiment is
/// deterministic and self-contained, so reports come back in `policies`
/// order and byte-identical at every thread count. When `sim_threads` > 1
/// a configured pipeline_observer runs concurrently from worker threads
/// and must be thread-safe.
std::vector<FaultReport> RunFaultPolicySweep(const model::ModelProfile& model,
                                             const topo::Cluster& cluster,
                                             const planner::ParallelPlan& plan,
                                             const FaultScript& script,
                                             const std::vector<RecoveryPolicy>& policies,
                                             const FaultOptions& options, int sim_threads = 1);

}  // namespace dapple::fault
