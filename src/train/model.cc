#include "train/model.h"

#include <algorithm>

#include "common/error.h"

namespace dapple::train {

void MlpModel::Add(std::unique_ptr<Layer> layer) {
  DAPPLE_CHECK(layer != nullptr) << "null layer";
  layers_.push_back(std::move(layer));
}

const Layer& MlpModel::layer(int i) const {
  DAPPLE_CHECK(i >= 0 && i < num_layers()) << "layer " << i;
  return *layers_[static_cast<std::size_t>(i)];
}

Layer& MlpModel::mutable_layer(int i) {
  DAPPLE_CHECK(i >= 0 && i < num_layers()) << "layer " << i;
  return *layers_[static_cast<std::size_t>(i)];
}

std::vector<Tensor*> MlpModel::Params() {
  std::vector<Tensor*> params;
  for (auto& layer : layers_) {
    if (layer->has_params()) {
      params.push_back(layer->mutable_weight());
      params.push_back(layer->mutable_bias());
    }
  }
  return params;
}

MlpModel MlpModel::Clone() const {
  MlpModel copy;
  for (const auto& layer : layers_) copy.Add(layer->Clone());
  return copy;
}

MlpModel MlpModel::MakeMlp(std::size_t in_features, std::size_t hidden, std::size_t out,
                           int hidden_layers, Rng& rng, bool use_tanh) {
  DAPPLE_CHECK_GE(hidden_layers, 1);
  MlpModel model;
  std::size_t width = in_features;
  for (int i = 0; i < hidden_layers; ++i) {
    model.Add(std::make_unique<Linear>(width, hidden, rng));
    if (use_tanh) {
      model.Add(std::make_unique<Tanh>());
    } else {
      model.Add(std::make_unique<Relu>());
    }
    width = hidden;
  }
  model.Add(std::make_unique<Linear>(width, out, rng));
  return model;
}

GradientVector ZeroGradients(MlpModel& model) {
  GradientVector grads;
  for (Tensor* p : model.Params()) {
    grads.emplace_back(p->rows(), p->cols(), 0.0f);
  }
  return grads;
}

void AccumulateGradients(GradientVector& dst, const GradientVector& src) {
  if (dst.empty()) {
    dst = src;
    return;
  }
  DAPPLE_CHECK_EQ(dst.size(), src.size()) << "gradient arity mismatch";
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i].AddInPlace(src[i]);
}

float MaxGradientDiff(const GradientVector& a, const GradientVector& b) {
  DAPPLE_CHECK_EQ(a.size(), b.size()) << "gradient arity mismatch";
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, Tensor::MaxAbsDiff(a[i], b[i]));
  }
  return worst;
}

}  // namespace dapple::train
