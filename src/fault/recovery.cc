#include "fault/recovery.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "planner/fingerprint.h"
#include "sim/engine.h"

namespace dapple::fault {

namespace {

constexpr TimeSec kInf = std::numeric_limits<TimeSec>::infinity();

/// One running configuration: a plan built against a (possibly degraded)
/// cluster, plus the id map back to the original and the state it targets.
struct Config {
  planner::ParallelPlan plan;
  topo::Cluster cluster;
  std::vector<topo::DeviceId> to_original_device;
  runtime::BuiltPipeline built;
  ClusterState planned_state;
};

/// An elastic replan onto a cluster state: the degraded cluster and the
/// next plan, or no plan and the reason training halts.
struct ElasticReplan {
  DegradedCluster degraded;
  bool grew = false;  // a device rejoined
  std::optional<planner::ParallelPlan> plan;
  std::string halt_reason;
};

/// The planner's answer for every degraded cluster one experiment has
/// already replanned onto, keyed by planner::FingerprintPlanRequest;
/// nullopt when the planner found no feasible plan. MakeDegradedCluster
/// renumbers the survivors, so losing either of two equal servers yields
/// the same cluster, and churn keeps returning to states it has seen.
using ReplanMemo = std::unordered_map<std::uint64_t, std::optional<planner::ParallelPlan>>;

/// Degrade -> replan online (once per distinct degraded cluster) -> remap
/// the running plan when the planner finds nothing -> halt. The online
/// planner books its search stats under fault.replan.*: replans sit on the
/// recovery critical path, so their wall time and cache behaviour are the
/// numbers an operator cares about; a memo hit books fault.replan.memo_hits
/// instead. Only elastic-up ever sees a grown cluster (PolicyStateAt keeps
/// crashes permanent for every other policy), so the remap may use new
/// devices exactly when the cluster grew. The remap depends on the running
/// plan, so it is never memoized.
ElasticReplan Replan(const model::ModelProfile& model, const topo::Cluster& cluster,
                     const ClusterState& now, const Config& running,
                     const planner::PlannerOptions& options, ReplanMemo& memo) {
  ElasticReplan step{MakeDegradedCluster(cluster, now), false, std::nullopt, {}};
  if (!step.degraded.feasible) {
    step.halt_reason = "no surviving server to replan onto";
    return step;
  }
  step.grew = step.degraded.cluster.num_devices() > running.cluster.num_devices();
  auto& metrics = obs::MetricsRegistry::Global();
  const auto [planned, miss] = memo.try_emplace(planner::FingerprintPlanRequest(
      model, step.degraded.cluster, options.global_batch_size, options));
  if (miss) {
    try {
      planner::PlanResult result =
          planner::DapplePlanner(model, step.degraded.cluster, options).Plan();
      metrics.counter("fault.replan.runs").Increment();
      metrics.histogram("fault.replan.wall_seconds").Observe(result.stats.wall_seconds);
      planned->second = std::move(result.plan);
    } catch (const planner::NoFeasiblePlan&) {
      // Stays nullopt: a return to this cluster remaps without searching.
    }
  } else {
    metrics.counter("fault.replan.memo_hits").Increment();
  }
  step.plan = planned->second;
  if (!step.plan) {
    step.plan = RemapPlanToCluster(running.plan, step.degraded, step.grew);
    if (!step.plan) step.halt_reason = "planner found no feasible plan on the degraded cluster";
  }
  return step;
}

std::vector<topo::DeviceId> IdentityMap(int n) {
  std::vector<topo::DeviceId> map(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) map[static_cast<std::size_t>(d)] = d;
  return map;
}

ClusterState HealthyState(const topo::Cluster& cluster) {
  return StateAt(FaultScript{}, cluster, 0.0);
}

/// Earliest crash time a run starting at t would hit; +inf when none.
/// Crashes whose device the current configuration already excludes
/// (`handled_dead`) no longer disrupt anything, and neither does an outage
/// whose rejoin is already behind t.
TimeSec NextCrash(const FaultScript& script, TimeSec t,
                  const std::vector<bool>* handled_dead = nullptr) {
  TimeSec next = kInf;
  for (const FaultEvent& e : script.events) {
    if (e.kind != FaultKind::kDeviceCrash) continue;
    if (handled_dead != nullptr && (*handled_dead)[static_cast<std::size_t>(e.device)]) {
      continue;
    }
    if (RejoinTimeAfter(script, e) <= t) continue;  // outage fully over
    next = std::min(next, std::max(e.start, t));
  }
  return next;
}

/// The cluster state a policy's control plane acts on at time t. Only
/// elastic-up has a state-migration path onto returning hardware, so only
/// it sees rejoins; every other policy keeps crashes permanent — which also
/// keeps their reports byte-identical on rejoin-free legacy scripts.
ClusterState PolicyStateAt(const FaultScript& script, const topo::Cluster& cluster,
                           TimeSec t, RecoveryPolicy policy) {
  if (policy == RecoveryPolicy::kElasticUp || !script.HasRejoin()) {
    return StateAt(script, cluster, t);
  }
  FaultScript pessimistic;
  for (const FaultEvent& e : script.events) {
    if (e.kind != FaultKind::kDeviceRejoin) pessimistic.events.push_back(e);
  }
  return StateAt(pessimistic, cluster, t);
}

/// True when no fault-script boundary falls strictly inside (begin, end).
bool NoBoundaryInside(const FaultScript& script, TimeSec begin, TimeSec end) {
  for (const FaultEvent& e : script.events) {
    if (e.start > begin && e.start < end) return false;
    if (e.kind != FaultKind::kDeviceCrash && e.end > begin && e.end < end) return false;
  }
  return true;
}

/// True when some transient (non-crash) window overlaps [begin, end).
bool WindowOverlaps(const FaultScript& script, TimeSec begin, TimeSec end) {
  for (const FaultEvent& e : script.events) {
    if (e.kind == FaultKind::kDeviceCrash) continue;
    if (e.start < end && e.end > begin) return true;
  }
  return false;
}

}  // namespace

const char* ToString(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kSyncStall: return "stall";
    case RecoveryPolicy::kCheckpointRestart: return "checkpoint";
    case RecoveryPolicy::kElasticReplan: return "replan";
    case RecoveryPolicy::kElasticUp: return "elastic-up";
  }
  return "?";
}

RecoveryPolicy ParseRecoveryPolicy(const std::string& name) {
  if (name == "stall") return RecoveryPolicy::kSyncStall;
  if (name == "checkpoint") return RecoveryPolicy::kCheckpointRestart;
  if (name == "replan") return RecoveryPolicy::kElasticReplan;
  if (name == "elastic-up") return RecoveryPolicy::kElasticUp;
  throw Error("unknown recovery policy '" + name +
              "' (stall | checkpoint | replan | elastic-up)");
}

std::vector<RecoveryPolicy> AllRecoveryPolicies() {
  return {RecoveryPolicy::kSyncStall, RecoveryPolicy::kCheckpointRestart,
          RecoveryPolicy::kElasticReplan, RecoveryPolicy::kElasticUp};
}

FaultReport RunFaultExperiment(const model::ModelProfile& model, const topo::Cluster& cluster,
                               const planner::ParallelPlan& plan, const FaultScript& script,
                               RecoveryPolicy policy, const FaultOptions& options) {
  DAPPLE_CHECK_GT(options.build.global_batch_size, 0) << "global batch size required";
  script.Validate(cluster);

  FaultReport report;
  report.policy = policy;
  report.model = model.name();
  report.cluster = cluster.name();
  report.script = script;
  report.global_batch_size = options.build.global_batch_size;
  report.initial_plan = plan.ToString();

  auto build_config = [&](planner::ParallelPlan p, topo::Cluster c,
                          std::vector<topo::DeviceId> map, ClusterState state) {
    runtime::BuiltPipeline built =
        runtime::GraphBuilder(model, c, p, options.build).Build();
    if (options.pipeline_observer) options.pipeline_observer(built, p, c);
    return Config{std::move(p), std::move(c), std::move(map), std::move(built),
                  std::move(state)};
  };

  Config config =
      build_config(plan, cluster, IdentityMap(cluster.num_devices()), HealthyState(cluster));

  {
    const sim::SimResult healthy =
        sim::Engine::Run(config.built.graph, config.built.engine_options);
    report.healthy_iteration_time = healthy.makespan;
    report.healthy_throughput =
        static_cast<double>(report.global_batch_size) / healthy.makespan;
  }
  const TimeSec horizon =
      options.horizon > 0.0 ? options.horizon : 25.0 * report.healthy_iteration_time;
  report.horizon = horizon;

  const TimeSec onset = script.empty() ? 0.0 : script.FirstOnset();
  planner::PlannerOptions planner_options = options.planner;
  if (planner_options.global_batch_size == 0) {
    planner_options.global_batch_size = options.build.global_batch_size;
  }

  ReplanMemo replan_memo;
  TimeSec t = 0.0;
  int iterations = 0;
  int last_checkpoint_iter = 0;
  TimeSec recovered_start = kInf;  // start of the first clean post-onset iteration
  bool halted = false;
  int steps = 0;

  auto halt = [&](TimeSec from, const std::string& why) {
    report.timeline.push_back({"stall", from, horizon, -1, why});
    t = horizon;
    halted = true;
  };

  while (t < horizon && !halted && steps++ < options.max_iterations) {
    // Elastic replans at iteration boundaries whenever the observed cluster
    // state no longer matches the one the running plan targets.
    if (policy == RecoveryPolicy::kElasticReplan || policy == RecoveryPolicy::kElasticUp) {
      const ClusterState now = PolicyStateAt(script, cluster, t, policy);
      if (now != config.planned_state) {
        ElasticReplan step = Replan(model, cluster, now, config, planner_options, replan_memo);
        if (!step.plan) {
          halt(t, step.halt_reason);
          break;
        }
        std::string note =
            "replanned onto " + step.degraded.cluster.name() + " as " + step.plan->ToString();
        TimeSec done = t + options.replan_cost;
        if (step.grew) {
          // Checkpoint-bounded cutover: new devices need a state snapshot,
          // so pay a restore on top of the replan and roll back to the last
          // periodic checkpoint — at most checkpoint_period iterations.
          const int rollback = iterations - last_checkpoint_iter;
          report.iterations_lost += rollback;
          iterations = last_checkpoint_iter;
          ++report.scale_ups;
          report.max_scale_up_rollback = std::max(report.max_scale_up_rollback, rollback);
          ++report.restores;
          done += options.restore_cost;
          note = "rolled back to iteration " + std::to_string(last_checkpoint_iter) + ", " + note;
        }
        report.timeline.push_back({step.grew ? "scale-up" : "replan", t, done, -1, note});
        ++report.replans;
        config = build_config(std::move(*step.plan), step.degraded.cluster,
                              step.degraded.to_original_device, now);
        t = done;
        continue;  // state may have shifted again while replanning
      }
    }

    sim::EngineOptions engine_options = config.built.engine_options;
    engine_options.resource_speeds =
        BuildSpeedProfiles(script, cluster, config.to_original_device, config.plan,
                           config.built, t, &config.planned_state);
    engine_options.allow_incomplete = script.HasCrash();
    const sim::SimResult result = sim::Engine::Run(config.built.graph, engine_options);

    if (result.completed) {
      const TimeSec end = t + result.makespan;
      report.timeline.push_back(
          {"iteration", t, end, iterations, config.plan.ToString()});
      if (recovered_start == kInf && (script.empty() || t >= onset)) {
        bool clean;
        if (policy == RecoveryPolicy::kElasticReplan || policy == RecoveryPolicy::kElasticUp) {
          clean = PolicyStateAt(script, cluster, t, policy) == config.planned_state &&
                  NoBoundaryInside(script, t, end);
        } else {
          // Stall and checkpoint never adapt to transient windows: clean
          // means no window touches the iteration and every crash so far is
          // one this config was (re)built without.
          clean = !WindowOverlaps(script, t, end) &&
                  PolicyStateAt(script, cluster, t, policy).device_dead ==
                      config.planned_state.device_dead &&
                  NextCrash(script, t, &config.planned_state.device_dead) >= end;
        }
        if (clean) {
          recovered_start = t;
          report.recovered = true;
          report.time_to_recover = end - onset;
        }
      }
      t = end;
      ++iterations;
      if ((policy == RecoveryPolicy::kCheckpointRestart ||
           policy == RecoveryPolicy::kElasticUp) &&
          iterations - last_checkpoint_iter >= options.checkpoint_period && t < horizon) {
        report.timeline.push_back({"checkpoint", t, t + options.checkpoint_cost, -1,
                                   "iteration " + std::to_string(iterations)});
        t += options.checkpoint_cost;
        last_checkpoint_iter = iterations;
        ++report.checkpoints;
      }
      continue;
    }

    // The iteration stalled: a fail-stop crash pinned part of the graph.
    const TimeSec crash_time = std::min(horizon, NextCrash(script, t));
    ++report.iterations_lost;  // the in-flight iteration is gone
    switch (policy) {
      case RecoveryPolicy::kSyncStall:
        halt(crash_time, "fail-stop device halts synchronous training");
        break;
      case RecoveryPolicy::kCheckpointRestart: {
        const TimeSec resumed = crash_time + options.detect_latency + options.restore_cost;
        const ClusterState now = PolicyStateAt(script, cluster, resumed, policy);
        const DegradedCluster degraded = MakeDegradedCluster(cluster, now);
        const auto remapped = RemapPlanToCluster(config.plan, degraded);
        if (!remapped) {
          halt(crash_time, "no surviving devices fit the plan's stages");
          break;
        }
        report.iterations_lost += iterations - last_checkpoint_iter;
        iterations = last_checkpoint_iter;
        report.timeline.push_back({"restore", crash_time, resumed, -1,
                                   "rolled back to iteration " +
                                       std::to_string(last_checkpoint_iter) + ", plan " +
                                       remapped->ToString()});
        ++report.restores;
        config = build_config(*remapped, degraded.cluster, degraded.to_original_device, now);
        t = resumed;
        break;
      }
      case RecoveryPolicy::kElasticReplan:
      case RecoveryPolicy::kElasticUp: {
        const TimeSec resumed = crash_time + options.detect_latency + options.replan_cost;
        const ClusterState now = PolicyStateAt(script, cluster, resumed, policy);
        ElasticReplan step = Replan(model, cluster, now, config, planner_options, replan_memo);
        if (!step.plan) {
          halt(crash_time, step.halt_reason);
          break;
        }
        report.timeline.push_back({"replan", crash_time, resumed, -1,
                                   "replanned onto " + step.degraded.cluster.name() + " as " +
                                       step.plan->ToString()});
        ++report.replans;
        config = build_config(std::move(*step.plan), step.degraded.cluster,
                              step.degraded.to_original_device, now);
        t = resumed;
        break;
      }
    }
  }

  const TimeSec elapsed = std::max(t, horizon);
  report.iterations_completed = iterations;
  report.goodput = static_cast<double>(report.global_batch_size) * iterations / elapsed;
  report.goodput_loss =
      report.healthy_throughput > 0.0 ? 1.0 - report.goodput / report.healthy_throughput : 0.0;
  report.final_plan = config.plan.ToString();

  if (report.recovered) {
    int post = 0;
    for (const TimelineRow& row : report.timeline) {
      if (row.kind == "iteration" && row.start >= recovered_start) ++post;
    }
    // Checkpoint rollback can discard iterations counted above; clamp so a
    // rolled-back tail never inflates the post-fault rate.
    post = std::min(post, iterations);
    if (elapsed > recovered_start && post > 0) {
      report.post_fault_throughput =
          static_cast<double>(report.global_batch_size) * post / (elapsed - recovered_start);
    }
  } else {
    report.time_to_recover = kInf;
  }
  return report;
}

std::vector<FaultReport> RunFaultPolicySweep(const model::ModelProfile& model,
                                             const topo::Cluster& cluster,
                                             const planner::ParallelPlan& plan,
                                             const FaultScript& script,
                                             const std::vector<RecoveryPolicy>& policies,
                                             const FaultOptions& options, int sim_threads) {
  ThreadPool pool(static_cast<std::size_t>(sim_threads));
  return pool.Map<FaultReport>(policies.size(), [&](std::size_t i) {
    return RunFaultExperiment(model, cluster, plan, script, policies[i], options);
  });
}

}  // namespace dapple::fault
