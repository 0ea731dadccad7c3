// Scheduler ablations: (1) warmup depth K swept directly (the knob behind
// policies PA/PB, §V-C) showing the latency/memory trade; (2) the
// re-computation overhead sweep around the paper's ~20% figure.
#include "harness.h"

#include <cstdio>

#include "common/table.h"

using namespace dapple;

int main() {
  bench::PrintHeader("Ablation — scheduler knobs (warmup depth K, recompute cost)",
                     "DAPPLE paper §V-C and §II-A");

  // A 4-stage GNMT pipeline on flat 25G: visible cross-stage comm makes
  // the warmup depth matter.
  const model::ModelProfile gnmt = model::MakeGnmt16();
  const topo::Cluster cluster = topo::MakeConfigB(4);
  planner::ParallelPlan plan;
  plan.model = gnmt.name();
  for (int s = 0; s < 4; ++s) {
    planner::StagePlan sp;
    sp.layer_begin = 4 * s;
    sp.layer_end = 4 * (s + 1);
    sp.devices = topo::DeviceSet::Range(s, 1);
    plan.stages.push_back(sp);
  }

  std::printf("\n(1) warmup depth K sweep (4-stage GNMT-16, Config-B, GBS 1024):\n");
  AsciiTable table({"K (stage 0)", "Latency", "Throughput (samples/s)", "Max peak mem",
                    "Note"});
  for (int k = 1; k <= 8; ++k) {
    runtime::BuildOptions o;
    o.global_batch_size = 1024;
    o.micro_batch_size = 64;
    o.schedule.warmup_override = k;
    const auto r = obs::RunIteration(gnmt, cluster, plan, o);
    std::string note;
    if (k == 4) note = "= PA's K0 (S)";
    if (k == 7) note = "= PB's K0 (2S-1)";
    table.AddRow({AsciiTable::Int(k), FormatTime(r.makespan),
                  AsciiTable::Num(r.throughput, 1), FormatBytes(r.max_peak_memory), note});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("Throughput saturates once K covers the pipeline round trip; memory\n"
              "keeps growing — the paper's PA/PB policies pick the two sweet spots.\n");

  std::printf("\n(2) re-computation overhead sweep (DAPPLE, BERT-48 2-stage, Config-B):\n");
  const model::ModelProfile bert = model::MakeBert48();
  const topo::Cluster two = topo::MakeConfigB(2);
  planner::ParallelPlan bplan;
  bplan.model = bert.name();
  planner::StagePlan s0, s1;
  s0.layer_begin = 0;
  s0.layer_end = 24;
  s0.devices = topo::DeviceSet::Range(0, 1);
  s1.layer_begin = 24;
  s1.layer_end = 48;
  s1.devices = topo::DeviceSet::Range(1, 1);
  bplan.stages = {s0, s1};

  AsciiTable rc_table({"RC overhead (x FW)", "Throughput (samples/s)",
                       "vs no-RC throughput", "Avg peak mem"});
  runtime::BuildOptions base;
  base.global_batch_size = 32;
  base.micro_batch_size = 2;
  const auto no_rc = obs::RunIteration(bert, two, bplan, base);
  rc_table.AddRow({"no recompute", AsciiTable::Num(no_rc.throughput, 2), "1.00",
                   FormatBytes(no_rc.avg_peak_memory)});
  planner::ParallelPlan rc_plan = bplan;
  for (planner::StagePlan& stage : rc_plan.stages) stage.recompute = true;
  for (double overhead : {0.25, 0.5, 0.75, 1.0}) {
    runtime::BuildOptions o = base;
    o.schedule.recompute_overhead = overhead;
    const auto r = obs::RunIteration(bert, two, rc_plan, o);
    rc_table.AddRow({AsciiTable::Num(overhead, 2), AsciiTable::Num(r.throughput, 2),
                     AsciiTable::Num(r.throughput / no_rc.throughput, 2),
                     FormatBytes(r.avg_peak_memory)});
  }
  std::printf("%s", rc_table.ToString().c_str());
  std::printf("The paper's reported ~20%% throughput cost corresponds to an overhead\n"
              "around 0.5-0.75x of the forward pass; memory savings are independent\n"
              "of the overhead.\n");
  return 0;
}
