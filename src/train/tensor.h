// Minimal dense float tensor for the numeric training substrate. DAPPLE's
// correctness claim — pipelined execution with gradient accumulation
// produces gradients identical to serial execution at the same global
// batch (paper §VI-A) — is a statement about real numbers, so this module
// gives the runtime real numbers to chew on. Row-major, CPU, float32.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace dapple::train {

/// Dense row-major 2-D tensor (rows x cols). 1-D data is modelled as a
/// single row; this is all an MLP pipeline needs.
class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f);

  static Tensor Random(std::size_t rows, std::size_t cols, Rng& rng, float scale);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Elementwise in-place operations.
  Tensor& AddInPlace(const Tensor& other);
  Tensor& Scale(float factor);
  void Fill(float value);

  /// Matrix product: (rows x cols) * (other.rows x other.cols).
  Tensor MatMul(const Tensor& other) const;

  /// Transposed views realized as copies (sizes here are tiny).
  Tensor Transposed() const;

  /// Rows [begin, end) as a new tensor (micro-batch slicing).
  Tensor RowSlice(std::size_t begin, std::size_t end) const;

  /// Stacks tensors with equal column counts vertically (concat).
  static Tensor VStack(const std::vector<Tensor>& parts);

  /// Largest absolute elementwise difference; tensors must match shape.
  static float MaxAbsDiff(const Tensor& a, const Tensor& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace dapple::train
