// Memory explorer: sweeps micro-batch counts and schedule/re-computation
// combinations for a two-stage BERT-48 pipeline and prints the peak-memory
// landscape — reproducing the reasoning behind the paper's Table VI at
// interactive speed.
//
// Usage: memory_explorer [max-M]
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "dapple/dapple.h"

using namespace dapple;

int main(int argc, char** argv) {
  const int max_m = argc > 1 ? std::atoi(argv[1]) : 16;

  const model::ModelProfile bert = model::MakeBert48();
  const topo::Cluster cluster = topo::MakeConfigB(2);
  planner::ParallelPlan plan;
  plan.model = bert.name();
  planner::StagePlan s0, s1;
  s0.layer_begin = 0;
  s0.layer_end = 24;
  s0.devices = topo::DeviceSet::Range(0, 1);
  s1.layer_begin = 24;
  s1.layer_end = 48;
  s1.devices = topo::DeviceSet::Range(1, 1);
  plan.stages = {s0, s1};

  AsciiTable table({"M", "GPipe", "GPipe+RC", "DAPPLE", "DAPPLE+RC",
                    "DAPPLE thpt (samples/s)"});
  for (int m = 2; m <= max_m; m *= 2) {
    std::vector<std::string> row = {AsciiTable::Int(m)};
    double dapple_thpt = 0;
    for (auto [kind, rc] : {std::pair{runtime::ScheduleKind::kGPipe, false},
                            {runtime::ScheduleKind::kGPipe, true},
                            {runtime::ScheduleKind::kDapple, false},
                            {runtime::ScheduleKind::kDapple, true}}) {
      runtime::BuildOptions o;
      o.global_batch_size = 2L * m;
      o.micro_batch_size = 2;
      o.schedule.kind = kind;
      planner::ParallelPlan run_plan = plan;
      for (planner::StagePlan& stage : run_plan.stages) stage.recompute = rc;
      const auto r = obs::RunIteration(bert, cluster, run_plan, o);
      row.push_back(FormatBytes(r.avg_peak_memory) + (r.oom ? " OOM" : ""));
      if (kind == runtime::ScheduleKind::kDapple && !rc) dapple_thpt = r.throughput;
    }
    row.push_back(AsciiTable::Num(dapple_thpt, 2));
    table.AddRow(std::move(row));
  }
  std::printf("BERT-48, 2-stage pipeline on Config-B, micro-batch 2 (16GB devices)\n\n%s",
              table.ToString().c_str());
  std::printf("\nGPipe's peak grows with M (all forward activations live at once);\n"
              "DAPPLE's is flat (early backward frees each micro-batch's stash);\n"
              "re-computation shrinks both at ~20%% throughput cost.\n");
  return 0;
}
