// Fig. 3 (+ Fig. 4's phase anatomy): GPipe vs DAPPLE schedules on a
// 3-stage pipeline with 7 micro-batches, with GPU0's memory-over-time
// trajectory for both — the paper's motivating picture for early backward
// scheduling.
#include "harness.h"

#include <cstdio>

#include "sim/trace.h"

using namespace dapple;

int main() {
  bench::PrintHeader("Fig. 3 — GPipe vs DAPPLE schedule and GPU0 memory",
                     "DAPPLE paper, Figs. 3 and 4");

  // A 3-stage, 7-micro-batch uniform pipeline mirroring the figure.
  const model::ModelProfile m = model::MakeUniformSynthetic(
      6, 0.010, 0.020, 2_MiB, 1'000'000, 1);
  const topo::Cluster cluster = topo::MakeConfigB(3);
  planner::ParallelPlan plan;
  plan.model = m.name();
  for (int s = 0; s < 3; ++s) {
    planner::StagePlan sp;
    sp.layer_begin = 2 * s;
    sp.layer_end = 2 * (s + 1);
    sp.devices = topo::DeviceSet::Range(s, 1);
    plan.stages.push_back(sp);
  }

  runtime::BuildOptions o;
  o.global_batch_size = 7;
  o.micro_batch_size = 1;
  o.enforce_memory_capacity = false;

  for (auto kind : {runtime::ScheduleKind::kGPipe, runtime::ScheduleKind::kDapple}) {
    o.schedule.kind = kind;
    runtime::PipelineExecutor exec(m, cluster, plan, o);
    const auto detail = exec.RunDetailed();
    std::printf("\n--- %s schedule (digits = FW micro-batch, letters = BW) ---\n",
                runtime::ToString(kind));
    std::printf("%s", sim::RenderGantt(detail.pipeline.graph, detail.result, 96).c_str());
    std::printf("GPU0 memory over time:\n%s",
                sim::RenderMemoryTimeline(detail.result.pools[0], detail.result.makespan,
                                          96, 6)
                    .c_str());
    std::printf("latency %s, peak GPU0 %s, warmup depths:",
                FormatTime(detail.result.makespan).c_str(),
                FormatBytes(detail.result.pools[0].peak()).c_str());
    for (int k : detail.pipeline.warmup_depths) std::printf(" %d", k);
    std::printf("\n");
  }

  // Fig. 4 phase anatomy from the analytic estimator.
  planner::LatencyEstimator est(m, cluster);
  const auto e = est.Estimate(plan, 7);
  std::printf("\nFig. 4 phases (analytic): warmup %s, steady %s, ending %s, pivot %d\n",
              FormatTime(e.warmup).c_str(), FormatTime(e.steady).c_str(),
              FormatTime(e.ending).c_str(), e.pivot);
  bench::PrintComparison("DAPPLE vs GPipe bubble time (same partition/M)", "equal",
                         "see identical makespans above");
  bench::PrintComparison("DAPPLE peak memory vs GPipe", "lower (O(K) vs O(M))",
                         "see GPU0 plots");
  return 0;
}
