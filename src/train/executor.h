// Numeric backpropagation executors. Three execution strategies must
// produce bit-comparable gradients at the same global batch (paper §VI-A:
// "all the pipeline latency optimizations ... give equivalent gradients
// for training when keeping global batch size fixed"):
//
//   RunSerial        — whole batch, whole model, one device.
//   RunDataParallel  — batch split over R replicas, gradient accumulation,
//                      AllReduce-style averaging.
//   RunPipelined     — model split into stages; micro-batches walked in the
//                      actual per-device-group orders of DAPPLE, GPipe,
//                      V-Min or V-Half (runtime::BuildSchedule) with an
//                      activation stash per in-flight micro-batch, optional
//                      re-computation, and gradient accumulation per stage.
//                      DAPPLE-2BP is refused: its backward-weight steps
//                      have no numeric counterpart here.
//
// The pipelined executor is a real interpreter of runtime/schedule.h's
// orders: it refuses to execute a step whose inputs have not been produced
// yet, so a schedule that would deadlock on the simulator also deadlocks
// here — and it reports the maximum number of stashed micro-batches, which
// is the numeric counterpart of the simulator's peak-memory claim.
#pragma once

#include <vector>

#include "runtime/schedule.h"
#include "train/model.h"

namespace dapple::train {

struct BackpropResult {
  double loss = 0.0;
  GradientVector grads;  // aligned with MlpModel::Params()
  /// Per computation stage: the largest number of micro-batch activation
  /// stashes simultaneously live (1-stage executions report {1}).
  std::vector<int> max_in_flight;
};

/// Whole-batch forward/backward on the full model.
BackpropResult RunSerial(MlpModel& model, const Tensor& inputs, const Tensor& targets);

/// Data parallelism: rows are split contiguously over `replicas` model
/// copies; each computes gradients for its shard; shards are summed
/// (gradient accumulation + AllReduce) into the global-batch gradient.
BackpropResult RunDataParallel(const MlpModel& model, const Tensor& inputs,
                               const Tensor& targets, int replicas);

struct PipelineRunOptions {
  /// Stage boundaries as layer indices: {0, k1, k2, ..., num_layers}.
  std::vector<int> stage_bounds;
  /// Rows per micro-batch; must divide the batch.
  int micro_batch = 0;
  /// Per-stage replica counts for hybrid pipeline + data parallelism
  /// (paper Fig. 9's split/concat): each micro-batch is row-split into
  /// |replicas| slices, forwarded independently, and re-concatenated at
  /// the next stage boundary; stage gradients are AllReduce-summed.
  /// Empty = 1 replica everywhere. Each count must divide micro_batch.
  std::vector<int> stage_replicas;
  runtime::ScheduleOptions schedule;
  /// Checkpoint only each stage's input and replay its forward inside the
  /// backward, on every stage (this trainer has no per-stage plan).
  bool recompute = false;
};

/// Pipeline-parallel execution following the schedule's device-group
/// orders. Throws dapple::Error for DAPPLE-2BP.
BackpropResult RunPipelined(MlpModel& model, const Tensor& inputs, const Tensor& targets,
                            const PipelineRunOptions& options);

/// Asynchronous PipeDream-style execution for contrast (paper §I): each
/// micro-batch's gradients are applied immediately (no end-of-batch sync),
/// so backward passes of in-flight micro-batches see newer weights unless
/// every in-flight version is stashed. Returns the number of weight
/// versions that had to be kept live — the memory cost the paper's
/// synchronous design eliminates.
struct AsyncResult {
  double loss = 0.0;
  int weight_versions_kept = 0;
};
AsyncResult RunAsyncPipeDream(MlpModel& model, const Tensor& inputs, const Tensor& targets,
                              const PipelineRunOptions& options, float learning_rate);

}  // namespace dapple::train
