// Table VI: DAPPLE vs GPipe on BERT-48, 2-stage pipeline, Config-B,
// micro-batch fixed at 2 — throughput and average peak memory as the
// number of micro-batches M grows, with and without re-computation.
#include "harness.h"

#include <cstdio>

#include "common/table.h"

using namespace dapple;

int main() {
  bench::PrintHeader("Table VI — DAPPLE vs GPipe (BERT-48, 2 stages, Config-B, mbs=2)",
                     "DAPPLE paper, Table VI");

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

  auto run = [&](runtime::ScheduleKind kind, bool recompute, int m) {
    runtime::BuildOptions o;
    o.global_batch_size = 2L * m;
    o.micro_batch_size = 2;
    o.schedule.kind = kind;
    planner::ParallelPlan run_plan = plan;
    for (planner::StagePlan& stage : run_plan.stages) stage.recompute = recompute;
    return obs::RunIteration(bert, cluster, run_plan, o);
  };

  AsciiTable table({"Config", "M", "Throughput (samples/s)", "Avg peak memory", "OOM?"});
  struct Variant {
    const char* name;
    runtime::ScheduleKind kind;
    bool recompute;
    std::vector<int> ms;
  };
  const Variant variants[] = {
      {"GPipe", runtime::ScheduleKind::kGPipe, false, {2, 5, 8}},
      {"GPipe + RC", runtime::ScheduleKind::kGPipe, true, {2, 5, 8}},
      {"DAPPLE", runtime::ScheduleKind::kDapple, false, {2, 8, 16}},
      {"DAPPLE + RC", runtime::ScheduleKind::kDapple, true, {2, 8, 16}},
  };
  for (const Variant& v : variants) {
    for (int m : v.ms) {
      const auto r = run(v.kind, v.recompute, m);
      table.AddRow({v.name, AsciiTable::Int(m), AsciiTable::Num(r.throughput, 2),
                    FormatBytes(r.avg_peak_memory), r.oom ? "OOM" : ""});
    }
    table.AddSeparator();
  }
  std::printf("%s", table.ToString().c_str());

  const auto gpipe8 = run(runtime::ScheduleKind::kGPipe, false, 8);
  const auto dapple16 = run(runtime::ScheduleKind::kDapple, false, 16);
  const auto dapple16rc = run(runtime::ScheduleKind::kDapple, true, 16);
  const auto gpipe2 = run(runtime::ScheduleKind::kGPipe, false, 2);
  bench::PrintComparison("DAPPLE(M=16) / best non-OOM GPipe throughput", "1.6x",
                         AsciiTable::Num(dapple16.throughput /
                                             run(runtime::ScheduleKind::kGPipe, true, 5)
                                                 .throughput, 2) + "x");
  bench::PrintComparison("DAPPLE(M=16) memory vs GPipe(M=2)", "0.88x",
                         AsciiTable::Num(static_cast<double>(dapple16.avg_peak_memory) /
                                             gpipe2.avg_peak_memory, 2) + "x");
  bench::PrintComparison("DAPPLE+RC(M=16) memory vs GPipe(M=2)", "0.70x",
                         AsciiTable::Num(static_cast<double>(dapple16rc.avg_peak_memory) /
                                             gpipe2.avg_peak_memory, 2) + "x");
  std::printf("\nShape check: DAPPLE's peak memory is flat in M while GPipe's grows\n"
              "until OOM (it OOMs at M=%d here); DAPPLE's throughput keeps rising\n"
              "with M because peak memory no longer throttles it; RC trades ~20%%\n"
              "throughput for memory.\n", gpipe8.oom ? 8 : -1);
  return 0;
}
