#include "train/executor.h"

#include <algorithm>
#include <map>
#include <optional>

#include "common/error.h"
#include "train/optimizer.h"

namespace dapple::train {

namespace {

/// Forward through layers [begin, end), optionally capturing the per-layer
/// saved contexts.
Tensor ForwardRange(MlpModel& model, int begin, int end, const Tensor& input,
                    std::vector<Tensor>* saved) {
  Tensor activation = input;
  for (int l = begin; l < end; ++l) {
    Tensor ctx;
    activation = model.layer(l).Forward(activation, saved ? &ctx : nullptr);
    if (saved) saved->push_back(std::move(ctx));
  }
  return activation;
}

/// Backward through layers [begin, end) given their saved contexts and the
/// gradient w.r.t. the range's output; accumulates per-layer parameter
/// grads into `grads_by_layer` (keyed by absolute layer index).
Tensor BackwardRange(MlpModel& model, int begin, int end, const std::vector<Tensor>& saved,
                     const Tensor& grad_out, std::map<int, LayerGrads>& grads_by_layer) {
  DAPPLE_CHECK_EQ(saved.size(), static_cast<std::size_t>(end - begin));
  Tensor grad = grad_out;
  for (int l = end - 1; l >= begin; --l) {
    LayerGrads* sink = nullptr;
    if (model.layer(l).has_params()) sink = &grads_by_layer[l];
    grad = model.mutable_layer(l).Backward(saved[static_cast<std::size_t>(l - begin)],
                                           grad, sink);
  }
  return grad;
}

/// Assembles a GradientVector (aligned with Params()) from per-layer
/// accumulated grads.
GradientVector AssembleGradients(MlpModel& model, std::map<int, LayerGrads>& by_layer) {
  GradientVector grads;
  for (int l = 0; l < model.num_layers(); ++l) {
    if (!model.layer(l).has_params()) continue;
    auto it = by_layer.find(l);
    DAPPLE_CHECK(it != by_layer.end()) << "missing gradients for layer " << l;
    grads.push_back(std::move(it->second.weight));
    grads.push_back(std::move(it->second.bias));
  }
  return grads;
}

}  // namespace

BackpropResult RunSerial(MlpModel& model, const Tensor& inputs, const Tensor& targets) {
  DAPPLE_CHECK_EQ(inputs.rows(), targets.rows()) << "batch size mismatch";
  std::vector<Tensor> saved;
  const Tensor predictions = ForwardRange(model, 0, model.num_layers(), inputs, &saved);
  Tensor loss_grad;
  BackpropResult result;
  result.loss = MseLoss::Compute(predictions, targets, inputs.rows(), &loss_grad);
  std::map<int, LayerGrads> by_layer;
  BackwardRange(model, 0, model.num_layers(), saved, loss_grad, by_layer);
  result.grads = AssembleGradients(model, by_layer);
  result.max_in_flight = {1};
  return result;
}

BackpropResult RunDataParallel(const MlpModel& model, const Tensor& inputs,
                               const Tensor& targets, int replicas) {
  DAPPLE_CHECK_GT(replicas, 0);
  DAPPLE_CHECK_EQ(inputs.rows() % static_cast<std::size_t>(replicas), 0u)
      << "batch must divide evenly across replicas";
  const std::size_t shard = inputs.rows() / static_cast<std::size_t>(replicas);

  BackpropResult total;
  for (int r = 0; r < replicas; ++r) {
    MlpModel replica = model.Clone();
    std::vector<Tensor> saved;
    const Tensor x = inputs.RowSlice(static_cast<std::size_t>(r) * shard,
                                     static_cast<std::size_t>(r + 1) * shard);
    const Tensor y = targets.RowSlice(static_cast<std::size_t>(r) * shard,
                                      static_cast<std::size_t>(r + 1) * shard);
    const Tensor predictions = ForwardRange(replica, 0, replica.num_layers(), x, &saved);
    Tensor loss_grad;
    // Normalize by the GLOBAL batch so the summed shard gradients equal
    // the serial mean gradient (this is what AllReduce-mean implements).
    total.loss += MseLoss::Compute(predictions, y, inputs.rows(), &loss_grad) *
                  (static_cast<double>(shard) / inputs.rows()) * replicas;
    std::map<int, LayerGrads> by_layer;
    BackwardRange(replica, 0, replica.num_layers(), saved, loss_grad, by_layer);
    AccumulateGradients(total.grads, AssembleGradients(replica, by_layer));
  }
  total.max_in_flight = {1};
  return total;
}

BackpropResult RunPipelined(MlpModel& model, const Tensor& inputs, const Tensor& targets,
                            const PipelineRunOptions& options) {
  const auto& bounds = options.stage_bounds;
  DAPPLE_CHECK_GE(bounds.size(), 2u) << "need at least one stage";
  DAPPLE_CHECK_EQ(bounds.front(), 0);
  DAPPLE_CHECK_EQ(bounds.back(), model.num_layers());
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    DAPPLE_CHECK_GT(bounds[i], bounds[i - 1]) << "empty stage";
  }
  const int num_stages = static_cast<int>(bounds.size()) - 1;
  DAPPLE_CHECK_GT(options.micro_batch, 0);
  DAPPLE_CHECK_EQ(inputs.rows() % static_cast<std::size_t>(options.micro_batch), 0u)
      << "micro-batch must divide the batch";
  const int num_micro =
      static_cast<int>(inputs.rows() / static_cast<std::size_t>(options.micro_batch));
  std::vector<int> replicas(static_cast<std::size_t>(num_stages), 1);
  if (!options.stage_replicas.empty()) {
    DAPPLE_CHECK_EQ(options.stage_replicas.size(), static_cast<std::size_t>(num_stages))
        << "stage_replicas arity";
    for (int s = 0; s < num_stages; ++s) {
      const int r = options.stage_replicas[static_cast<std::size_t>(s)];
      DAPPLE_CHECK_GT(r, 0) << "stage " << s << " replicas";
      DAPPLE_CHECK_EQ(options.micro_batch % r, 0)
          << "replicas of stage " << s << " must divide the micro-batch";
      replicas[static_cast<std::size_t>(s)] = r;
    }
  }

  DAPPLE_CHECK(options.schedule.kind != runtime::ScheduleKind::kDappleSplitBw)
      << "RunPipelined does not run DAPPLE-2BP: it has no backward-weight steps";
  // One cursor per device group, walking the group's order; each step
  // names the stage (a V group's chunk) it runs.
  const std::vector<std::vector<runtime::ScheduleStep>> orders =
      runtime::BuildSchedule(options.schedule, num_stages, num_micro).group_orders;
  std::vector<std::size_t> cursor(orders.size(), 0);

  // Dataflow state.
  // stage_input[s][m]: activation entering stage s for micro-batch m.
  std::vector<std::map<int, Tensor>> stage_input(static_cast<std::size_t>(num_stages));
  // grad_input[s][m]: dLoss/d(stage s output) for micro-batch m.
  std::vector<std::map<int, Tensor>> grad_input(static_cast<std::size_t>(num_stages));
  // stash[s][m]: saved contexts (or the checkpointed input if recomputing).
  std::vector<std::map<int, std::vector<Tensor>>> stash(
      static_cast<std::size_t>(num_stages));

  for (int m = 0; m < num_micro; ++m) {
    stage_input[0][m] =
        inputs.RowSlice(static_cast<std::size_t>(m) * options.micro_batch,
                        static_cast<std::size_t>(m + 1) * options.micro_batch);
  }

  BackpropResult result;
  result.max_in_flight.assign(static_cast<std::size_t>(num_stages), 0);
  std::map<int, LayerGrads> grads_by_layer;

  auto try_step = [&](std::size_t g) -> bool {
    if (cursor[g] >= orders[g].size()) return false;
    const runtime::ScheduleStep step = orders[g][cursor[g]];
    const int s = step.stage;
    const int m = step.microbatch;
    const int begin = bounds[static_cast<std::size_t>(s)];
    const int end = bounds[static_cast<std::size_t>(s) + 1];

    if (!step.is_backward) {
      auto input_it = stage_input[static_cast<std::size_t>(s)].find(m);
      if (input_it == stage_input[static_cast<std::size_t>(s)].end()) return false;

      // Split the micro-batch into one row slice per replica (a single
      // slice when unreplicated), forward each independently (paper Fig.
      // 9's split), and concat the outputs for the next stage. Slices share
      // the stage's weights, so the concatenated result is bit-identical to
      // the unreplicated forward — which is exactly the property DAPPLE's
      // replication relies on.
      const int r = replicas[static_cast<std::size_t>(s)];
      const std::size_t slice_rows = input_it->second.rows() / static_cast<std::size_t>(r);
      std::vector<Tensor> saved;
      std::vector<Tensor> outs;
      for (int k = 0; k < r; ++k) {
        const Tensor slice =
            input_it->second.RowSlice(static_cast<std::size_t>(k) * slice_rows,
                                      static_cast<std::size_t>(k + 1) * slice_rows);
        std::vector<Tensor> slice_saved;
        outs.push_back(ForwardRange(model, begin, end, slice, &slice_saved));
        for (Tensor& t : slice_saved) saved.push_back(std::move(t));
      }
      Tensor out = Tensor::VStack(outs);
      if (options.recompute) {
        // Checkpoint only the stage input; the saved contexts are
        // regenerated during backward.
        std::vector<Tensor> checkpoint;
        checkpoint.push_back(input_it->second);
        stash[static_cast<std::size_t>(s)][m] = std::move(checkpoint);
      } else {
        stash[static_cast<std::size_t>(s)][m] = std::move(saved);
      }
      result.max_in_flight[static_cast<std::size_t>(s)] =
          std::max(result.max_in_flight[static_cast<std::size_t>(s)],
                   static_cast<int>(stash[static_cast<std::size_t>(s)].size()));
      stage_input[static_cast<std::size_t>(s)].erase(input_it);

      if (s + 1 < num_stages) {
        stage_input[static_cast<std::size_t>(s) + 1][m] = std::move(out);
      } else {
        // Last stage: loss closes the loop immediately (its own backward
        // input becomes available).
        const Tensor y =
            targets.RowSlice(static_cast<std::size_t>(m) * options.micro_batch,
                             static_cast<std::size_t>(m + 1) * options.micro_batch);
        Tensor loss_grad;
        result.loss += MseLoss::Compute(out, y, inputs.rows(), &loss_grad) *
                       (static_cast<double>(options.micro_batch) / inputs.rows()) *
                       num_micro;
        grad_input[static_cast<std::size_t>(s)][m] = std::move(loss_grad);
      }
    } else {
      auto grad_it = grad_input[static_cast<std::size_t>(s)].find(m);
      if (grad_it == grad_input[static_cast<std::size_t>(s)].end()) return false;
      auto stash_it = stash[static_cast<std::size_t>(s)].find(m);
      DAPPLE_CHECK(stash_it != stash[static_cast<std::size_t>(s)].end())
          << "backward before forward for micro " << m << " stage " << s;

      // Each replica back-propagates its row slice; parameter gradients
      // accumulate into the shared sink (the numeric AllReduce), and input
      // slices re-concatenate.
      const int r = replicas[static_cast<std::size_t>(s)];
      const std::size_t slice_rows = grad_it->second.rows() / static_cast<std::size_t>(r);
      const int layers_per = end - begin;
      std::vector<Tensor> grad_slices;
      for (int k = 0; k < r; ++k) {
        const Tensor grad_slice =
            grad_it->second.RowSlice(static_cast<std::size_t>(k) * slice_rows,
                                     static_cast<std::size_t>(k + 1) * slice_rows);
        std::vector<Tensor> saved;
        if (options.recompute) {
          // Replay this slice's forward from the checkpointed input.
          const std::size_t in_rows =
              stash_it->second.front().rows() / static_cast<std::size_t>(r);
          const Tensor in_slice =
              stash_it->second.front().RowSlice(static_cast<std::size_t>(k) * in_rows,
                                                static_cast<std::size_t>(k + 1) * in_rows);
          (void)ForwardRange(model, begin, end, in_slice, &saved);
        } else {
          for (int l = 0; l < layers_per; ++l) {
            saved.push_back(
                std::move(stash_it->second[static_cast<std::size_t>(k * layers_per + l)]));
          }
        }
        grad_slices.push_back(
            BackwardRange(model, begin, end, saved, grad_slice, grads_by_layer));
      }
      Tensor grad_in = Tensor::VStack(grad_slices);
      stash[static_cast<std::size_t>(s)].erase(stash_it);  // early memory release
      grad_input[static_cast<std::size_t>(s)].erase(grad_it);
      if (s > 0) grad_input[static_cast<std::size_t>(s) - 1][m] = std::move(grad_in);
    }
    ++cursor[g];
    return true;
  };

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t g = 0; g < orders.size(); ++g) {
      while (try_step(g)) progressed = true;
    }
  }
  for (std::size_t g = 0; g < orders.size(); ++g) {
    DAPPLE_CHECK_EQ(cursor[g], orders[g].size())
        << "pipeline schedule deadlocked at device group " << g;
  }

  result.grads = AssembleGradients(model, grads_by_layer);
  return result;
}

AsyncResult RunAsyncPipeDream(MlpModel& model, const Tensor& inputs, const Tensor& targets,
                              const PipelineRunOptions& options, float learning_rate) {
  // Asynchronous pipeline: micro-batch m's backward must use the weights
  // its forward saw, so each in-flight micro-batch pins a weight version
  // (PipeDream's weight stashing); updates apply as soon as a micro-batch
  // finishes. We model one stage group at a time (the version-count logic
  // is per-stage identical) and run micro-batches with overlap depth equal
  // to the pipeline depth.
  const int num_stages = static_cast<int>(options.stage_bounds.size()) - 1;
  DAPPLE_CHECK_GT(options.micro_batch, 0);
  const int num_micro =
      static_cast<int>(inputs.rows() / static_cast<std::size_t>(options.micro_batch));
  const int overlap = std::min(num_stages, num_micro);

  auto sgd = MakeSgd(learning_rate);
  AsyncResult result;
  result.weight_versions_kept = overlap;

  // In steady state, `overlap` micro-batches are in flight: micro-batch m
  // forwards against version v_m = weights after update m - overlap, and
  // its update lands before micro-batch m + overlap forwards. We realize
  // this with a ring of stashed model versions.
  std::vector<MlpModel> versions;
  std::vector<std::optional<int>> inflight(static_cast<std::size_t>(overlap));
  for (int i = 0; i < overlap; ++i) versions.push_back(model.Clone());

  for (int m = 0; m < num_micro; ++m) {
    const int slot = m % overlap;
    // Retire the oldest in-flight micro-batch occupying this slot: its
    // backward ran against the stashed version; its gradient applies to
    // the live weights (stale by `overlap` updates — the async hazard).
    versions[static_cast<std::size_t>(slot)] = model.Clone();
    const Tensor x = inputs.RowSlice(static_cast<std::size_t>(m) * options.micro_batch,
                                     static_cast<std::size_t>(m + 1) * options.micro_batch);
    const Tensor y = targets.RowSlice(static_cast<std::size_t>(m) * options.micro_batch,
                                      static_cast<std::size_t>(m + 1) * options.micro_batch);
    MlpModel& version = versions[static_cast<std::size_t>(slot)];
    BackpropResult bp = RunSerial(version, x, y);
    result.loss += bp.loss / num_micro;
    // Apply the (stale) gradient to the live weights immediately.
    const std::vector<Tensor*> params = model.Params();
    sgd->Step(params, bp.grads);
    inflight[static_cast<std::size_t>(slot)] = m;
  }
  return result;
}

}  // namespace dapple::train
