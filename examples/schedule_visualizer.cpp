// Schedule visualizer: renders the DAPPLE vs GPipe execution of any
// benchmark model as an ASCII Gantt chart plus per-device memory
// trajectories — the fastest way to *see* early backward scheduling.
//
// Usage: schedule_visualizer [model-name] [stages] [micro-batches]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "dapple/dapple.h"

using namespace dapple;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "BERT-48";
  const int stages = argc > 2 ? std::atoi(argv[2]) : 4;
  const int micro_batches = argc > 3 ? std::atoi(argv[3]) : 8;

  const model::ModelProfile m = model::ModelByName(name);
  const topo::Cluster cluster = topo::MakeConfigB(stages);

  // Even straight pipeline over `stages` devices.
  planner::ParallelPlan plan;
  plan.model = m.name();
  const int per = m.num_layers() / stages;
  for (int s = 0; s < stages; ++s) {
    planner::StagePlan sp;
    sp.layer_begin = s * per;
    sp.layer_end = s + 1 == stages ? m.num_layers() : (s + 1) * per;
    sp.devices = topo::DeviceSet::Range(s, 1);
    plan.stages.push_back(sp);
  }

  std::printf("%s on %d stages, %d micro-batches of %d\n\n", name.c_str(), stages,
              micro_batches, m.profile_micro_batch());

  for (auto kind : {runtime::ScheduleKind::kGPipe, runtime::ScheduleKind::kDapple}) {
    runtime::BuildOptions o;
    o.global_batch_size = static_cast<long>(micro_batches) * m.profile_micro_batch();
    o.micro_batch_size = m.profile_micro_batch();
    o.schedule.kind = kind;
    o.enforce_memory_capacity = false;
    const auto detail = runtime::PipelineExecutor(m, cluster, plan, o).RunDetailed();
    const obs::IterationReport report = obs::BuildIterationReport(detail.pipeline, detail.result);

    std::printf("=== %s: latency %s, avg util %.0f%%, max peak %s ===\n",
                runtime::ToString(kind), FormatTime(report.makespan).c_str(),
                100 * report.utilization, FormatBytes(report.max_peak_memory).c_str());
    std::printf("%s", sim::RenderGantt(detail.pipeline.graph, detail.result, 100).c_str());
    std::printf("GPU0 memory:\n%s\n",
                sim::RenderMemoryTimeline(detail.result.pools[0], detail.result.makespan,
                                          100, 5)
                    .c_str());
  }
  std::printf("Digits are forward micro-batches, letters are backwards, '-' transfers,\n"
              "'#' AllReduce, '=' the optimizer apply.\n");
  return 0;
}
