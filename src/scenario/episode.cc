#include "scenario/episode.h"

#include "common/thread_pool.h"

namespace dapple::scenario {

EpisodeReport RunEpisode(const model::ModelProfile& model, const topo::Cluster& cluster,
                         const planner::ParallelPlan& plan, const EpisodeOptions& options) {
  const fault::FaultScript script =
      GenerateChurnScript(options.seed, cluster, options.churn, options.churn_options);

  fault::FaultOptions fault_options = options.fault;
  fault_options.horizon = options.churn_options.horizon;

  EpisodeReport report;
  report.seed = options.seed;
  report.churn = options.churn;
  report.fault =
      fault::RunFaultExperiment(model, cluster, plan, script, options.policy, fault_options);

  for (const fault::FaultEvent& e : script.events) {
    switch (e.kind) {
      case fault::FaultKind::kDeviceCrash: ++report.preemptions; break;
      case fault::FaultKind::kDeviceRejoin: ++report.rejoins; break;
      case fault::FaultKind::kDeviceSlowdown: ++report.slowdown_windows; break;
      case fault::FaultKind::kLinkDegradation: break;
    }
  }
  report.utilization = report.fault.healthy_throughput > 0.0
                           ? report.fault.goodput / report.fault.healthy_throughput
                           : 0.0;
  return report;
}

std::vector<EpisodeReport> RunEpisodeSweep(const model::ModelProfile& model,
                                           const topo::Cluster& cluster,
                                           const planner::ParallelPlan& plan,
                                           const std::vector<EpisodeOptions>& episodes,
                                           int sim_threads) {
  ThreadPool pool(static_cast<std::size_t>(sim_threads));
  return pool.Map<EpisodeReport>(episodes.size(), [&](std::size_t i) {
    return RunEpisode(model, cluster, plan, episodes[i]);
  });
}

}  // namespace dapple::scenario
