// Fig. 8: two ways to feed a replicated stage — split every micro-batch
// across the replicas (DAPPLE) vs round-robin whole micro-batches — on the
// paper's exact scenario (stage 0 costs 2x stage 1 and is replicated on
// two devices).
#include "harness.h"

#include <cstdio>

#include "sim/trace.h"

using namespace dapple;

int main() {
  bench::PrintHeader("Fig. 8 — split vs round-robin stage replication",
                     "DAPPLE paper, Fig. 8");

  const model::ModelProfile m = model::MakeUniformSynthetic(
      4, 0.020, 0.040, 8_MiB, 1'000'000, 2);
  // One NVLink server with exactly the three devices the figure uses.
  const topo::Cluster cluster("one-server", 1, 3, topo::DeviceSpec{},
                              topo::MakeConfigA(1).interconnect());
  planner::ParallelPlan plan;
  plan.model = m.name();
  planner::StagePlan s0, s1;
  s0.layer_begin = 0;
  s0.layer_end = 3;  // ~2x the work of stage 1
  s0.devices = topo::DeviceSet::Range(0, 2);
  s1.layer_begin = 3;
  s1.layer_end = 4;
  s1.devices = topo::DeviceSet::Range(2, 1);
  plan.stages = {s0, s1};

  for (auto mode : {runtime::ReplicationMode::kSplitMicroBatch,
                    runtime::ReplicationMode::kRoundRobin}) {
    runtime::BuildOptions o;
    o.global_batch_size = 20;
    o.micro_batch_size = 2;
    o.replication = mode;
    const auto detail = runtime::PipelineExecutor(m, cluster, plan, o).RunDetailed();
    const obs::IterationReport report = obs::BuildIterationReport(detail.pipeline, detail.result);
    std::printf("\n--- %s (Fig. 8%s) ---\n", runtime::ToString(mode),
                mode == runtime::ReplicationMode::kSplitMicroBatch ? "a" : "b");
    std::printf("%s", sim::RenderGantt(detail.pipeline.graph, detail.result, 96).c_str());
    std::printf("latency %s, avg utilization %.0f%%\n", FormatTime(report.makespan).c_str(),
                100.0 * report.utilization);
  }
  std::printf("\nShape check: round-robin leaves idle gaps on the replicas (the tail\n"
              "effect); splitting each micro-batch keeps both replica devices and\n"
              "the downstream stage busier and finishes earlier.\n");
  return 0;
}
