// Sequential MLP model: an ordered stack of layers with parameter access
// for optimizers and deep cloning for data-parallel replicas. The layer
// granularity matches the planner's view of a model: a ParallelPlan's
// stage [begin, end) maps onto the same indices here.
#pragma once

#include <memory>
#include <vector>

#include "train/layer.h"

namespace dapple::train {

class MlpModel {
 public:
  MlpModel() = default;

  void Add(std::unique_ptr<Layer> layer);

  int num_layers() const { return static_cast<int>(layers_.size()); }
  const Layer& layer(int i) const;
  Layer& mutable_layer(int i);

  /// Pointers to every parameter tensor, in layer order (weight then bias
  /// per parametric layer). Optimizers and gradient exchange operate on
  /// this flat view.
  std::vector<Tensor*> Params();

  /// Deep copy, preserving weights (for data-parallel replicas).
  MlpModel Clone() const;

  /// Builds `hidden_layers` Linear+activation blocks plus a final Linear:
  /// in -> hidden -> ... -> hidden -> out. `use_tanh` picks tanh over ReLU
  /// (smooth gradients make convergence tests robust).
  static MlpModel MakeMlp(std::size_t in_features, std::size_t hidden, std::size_t out,
                          int hidden_layers, Rng& rng, bool use_tanh = true);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Gradient set aligned with MlpModel::Params(): one tensor per parameter.
using GradientVector = std::vector<Tensor>;

/// Zero-initializes a gradient vector matching the model's params.
GradientVector ZeroGradients(MlpModel& model);

/// Accumulates src into dst elementwise (dst may be empty-initialized).
void AccumulateGradients(GradientVector& dst, const GradientVector& src);

/// Largest elementwise difference over all gradient tensors.
float MaxGradientDiff(const GradientVector& a, const GradientVector& b);

}  // namespace dapple::train
