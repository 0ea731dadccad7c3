// Schedule-family frontier: every family (DAPPLE 1F1B, GPipe, DAPPLE-2BP,
// V-Min, V-Half) swept over the benchmark model zoo on equal hardware —
// four executing devices, eight micro-batches — reporting the simulated
// latency, the compute bubble fraction and the peak activation memory per
// (family, model) row.
//
// The linear families run a 4-stage plan on devices 0-3; the V shapes run
// the same model as 8 chunks folded onto those same 4 devices (chunks 4-7
// declare the idle devices 4-7 only to keep the plan valid). Exits
// non-zero if V-Min fails its headline claim — strictly less peak
// activation memory than 1F1B — on any zoo model, so the frontier doubles
// as an acceptance check.
#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"

using namespace dapple;

namespace {

// Near-even split of `layers` into `parts` stages, one device per stage
// starting at device `first`.
planner::ParallelPlan EvenSplit(const model::ModelProfile& m, int parts) {
  planner::ParallelPlan plan;
  plan.model = m.name();
  for (int i = 0; i < parts; ++i) {
    planner::StagePlan sp;
    sp.layer_begin = i * m.num_layers() / parts;
    sp.layer_end = (i + 1) * m.num_layers() / parts;
    sp.devices = topo::DeviceSet::Range(i, 1);
    plan.stages.push_back(sp);
  }
  return plan;
}

struct FrontierRow {
  TimeSec makespan = 0.0;
  double bubble = 0.0;
  Bytes peak_activation = 0;
};

FrontierRow RunFamily(const model::ModelProfile& m, const topo::Cluster& cluster,
                      const planner::ParallelPlan& plan, runtime::ScheduleKind kind,
                      long gbs) {
  runtime::BuildOptions o;
  o.global_batch_size = gbs;
  o.schedule.kind = kind;
  o.enforce_memory_capacity = false;  // the point is to measure the peak
  const runtime::BuiltPipeline built =
      runtime::GraphBuilder(m, cluster, plan, o).Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);

  FrontierRow row;
  row.makespan = result.makespan;
  // Bubble over the devices that executed work (the V shapes leave the
  // declared chunk devices idle; counting them would overstate the bubble).
  double busy = 0.0;
  int occupied = 0;
  for (int d = 0; d < built.num_devices; ++d) {
    const auto& usage = result.resources[static_cast<std::size_t>(d)];
    if (usage.tasks_executed == 0) continue;
    busy += usage.compute_busy;
    ++occupied;
  }
  if (occupied > 0 && result.makespan > 0.0) {
    row.bubble = 1.0 - busy / (occupied * result.makespan);
  }
  for (int d = 0; d < built.num_devices; ++d) {
    const sim::MemoryPool& pool = result.pools[static_cast<std::size_t>(d)];
    row.peak_activation = std::max(row.peak_activation, pool.peak() - pool.baseline());
  }
  return row;
}

}  // namespace

int main() {
  bench::PrintHeader("Schedule-family frontier — latency vs activation memory",
                     "DAPPLE §III schedule + controllable-memory V shapes (Qi et al.) "
                     "and the 2BP backward split");

  const topo::Cluster cluster = topo::MakeConfigB(8);
  const int kStages = 4;   // linear families: 4 stages on devices 0-3
  const int kChunks = 8;   // V shapes: 8 chunks folded onto devices 0-3
  const int kMicroBatches = 8;

  bool vmin_wins_everywhere = true;
  for (const model::ModelProfile& m : model::AllBenchmarkModels()) {
    if (m.num_layers() < kChunks) {
      std::printf("\n%s: skipped (%d layers < %d chunks)\n", m.name().c_str(),
                  m.num_layers(), kChunks);
      continue;
    }
    const long gbs = static_cast<long>(kMicroBatches) * m.profile_micro_batch();
    const planner::ParallelPlan linear = EvenSplit(m, kStages);
    const planner::ParallelPlan folded = EvenSplit(m, kChunks);
    linear.Validate(m);
    folded.Validate(m);

    std::printf("\n%s (%d layers, GBS %ld, M=%d, 4 executing devices):\n",
                m.name().c_str(), m.num_layers(), gbs, kMicroBatches);
    AsciiTable table({"Family", "Latency", "Bubble", "Peak act mem"});
    Bytes peak_1f1b = 0, peak_vmin = 0;
    for (const runtime::ScheduleKind kind : runtime::AllScheduleKinds()) {
      const bool v = runtime::IsVShape(kind);
      const FrontierRow row =
          RunFamily(m, cluster, v ? folded : linear, kind, gbs);
      if (kind == runtime::ScheduleKind::kDapple) peak_1f1b = row.peak_activation;
      if (kind == runtime::ScheduleKind::kVMin) peak_vmin = row.peak_activation;
      table.AddRow({runtime::ToString(kind), FormatTime(row.makespan),
                    AsciiTable::Num(row.bubble * 100.0, 1) + "%",
                    FormatBytes(row.peak_activation)});
    }
    std::printf("%s", table.ToString().c_str());

    if (peak_vmin >= peak_1f1b) {
      std::printf("FAIL: V-Min peak activation (%s) is not below 1F1B's (%s)\n",
                  FormatBytes(peak_vmin).c_str(), FormatBytes(peak_1f1b).c_str());
      vmin_wins_everywhere = false;
    } else {
      std::printf("V-Min peak activation is %.0f%% of 1F1B's.\n",
                  100.0 * static_cast<double>(peak_vmin) /
                      static_cast<double>(std::max<Bytes>(peak_1f1b, 1)));
    }
  }

  std::printf("\nReading the frontier: GPipe maximizes memory for no latency win;\n"
              "1F1B caps the stash at the pipeline depth; 2BP trades nothing for a\n"
              "tighter drain; the V shapes roughly halve the activation peak on the\n"
              "same devices (approaching 1/3 for deeper folds) at a bubble cost.\n");
  return vmin_wins_everywhere ? 0 : 1;
}
