// Quickstart: plan and run BERT-48 on a two-server Config-A cluster, then
// compare the planner's hybrid strategy against the data-parallel
// baselines — a miniature version of the paper's evaluation loop.
#include <cstdio>

#include "dapple/dapple.h"

int main() {
  using namespace dapple;

  const model::ModelProfile bert = model::MakeBert48();
  const topo::Cluster cluster = topo::MakeConfigA(/*num_servers=*/2);
  const long global_batch_size = 64;

  Session session(bert, cluster);

  // 1. Profile (Table II style summary).
  const model::ProfileReport profile = session.Profile();
  std::printf("model %s: %.0fM params (%s gradients), memory cost %s at micro-batch %d\n",
              profile.model.c_str(), profile.param_count / 1e6,
              FormatBytes(profile.param_bytes).c_str(),
              FormatBytes(profile.memory_cost).c_str(), profile.profile_micro_batch);

  // 2. Plan: hybrid pipeline + data parallelism.
  const planner::PlanResult planned = session.Plan(global_batch_size);
  std::printf("\nplanner output: %s (split %s), estimated latency %s, ACR %.2f\n",
              planned.plan.ToString().c_str(), planned.plan.SplitString().c_str(),
              FormatTime(planned.estimate.latency).c_str(), planned.estimate.acr);
  std::printf("%s", planned.plan.ToDetailedString().c_str());

  // 3. Run one iteration on the simulated cluster.
  const obs::IterationReport report = session.Run(planned.plan, global_batch_size);
  std::printf("\nruntime: latency %s, throughput %.2f samples/s, speedup %.2fx\n",
              FormatTime(report.makespan).c_str(), report.throughput, report.speedup);
  std::printf("peak memory avg %s / max %s, utilization %.0f%%, %d micro-batches of %d\n",
              FormatBytes(report.avg_peak_memory).c_str(),
              FormatBytes(report.max_peak_memory).c_str(),
              100.0 * report.utilization, report.num_micro_batches,
              report.micro_batch_size);

  // 4. Against data-parallel baselines.
  for (auto variant :
       {planner::DataParallelVariant::kNoOverlap, planner::DataParallelVariant::kOverlap}) {
    const auto dp = planner::EstimateDataParallel(bert, cluster, global_batch_size, variant);
    std::printf("DP %-10s: %s/iter, speedup %.2fx%s\n",
                variant == planner::DataParallelVariant::kOverlap ? "overlap" : "no-overlap",
                FormatTime(dp.iteration_time).c_str(), dp.speedup,
                dp.feasible ? "" : "  (INFEASIBLE)");
  }
  return 0;
}
