// Long-horizon episode driver: one seeded churn stream played against one
// training job under one recovery policy, end to end. An episode is the
// scenario layer's unit of measurement — the fault layer's iteration-by-
// iteration experiment plus the churn metadata (model, seed, preemption/
// rejoin counts, scale-up cutovers, utilization) that ranking policies
// across a corpus needs. Deterministic: identical (spec, seed) produce a
// byte-identical report at every sweep thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/recovery.h"
#include "model/profile.h"
#include "planner/plan.h"
#include "scenario/stream.h"
#include "topo/cluster.h"

namespace dapple::scenario {

struct EpisodeOptions {
  std::uint64_t seed = 0;
  ChurnModel churn = ChurnModel::kSpotChurn;
  ChurnOptions churn_options;
  fault::RecoveryPolicy policy = fault::RecoveryPolicy::kElasticUp;
  /// Fault-experiment knobs (costs, checkpoint period, planner, build).
  /// `fault.horizon` is overridden by churn_options.horizon so the stream
  /// and the experiment always agree on the episode length.
  fault::FaultOptions fault;
};

struct EpisodeReport {
  std::uint64_t seed = 0;
  ChurnModel churn = ChurnModel::kSpotChurn;
  /// The underlying iteration-level experiment (timeline, goodput, ...).
  fault::FaultReport fault;

  // Churn-stream shape, counted from the script.
  int preemptions = 0;
  int rejoins = 0;
  int slowdown_windows = 0;

  /// goodput / healthy_throughput, the fraction of the cluster's fault-free
  /// capacity the policy salvaged over the horizon.
  double utilization = 0.0;
};

/// Generates the churn script for (seed, model, options) and runs the fault
/// experiment under the episode's policy. The report carries every count.
EpisodeReport RunEpisode(const model::ModelProfile& model, const topo::Cluster& cluster,
                         const planner::ParallelPlan& plan, const EpisodeOptions& options);

/// Runs one episode per options entry on a ThreadPool of `sim_threads`
/// workers (1 = inline serial, 0 = hardware concurrency).
/// Reports come back in `episodes` order, byte-identical at every thread
/// count.
std::vector<EpisodeReport> RunEpisodeSweep(const model::ModelProfile& model,
                                           const topo::Cluster& cluster,
                                           const planner::ParallelPlan& plan,
                                           const std::vector<EpisodeOptions>& episodes,
                                           int sim_threads = 1);

}  // namespace dapple::scenario
