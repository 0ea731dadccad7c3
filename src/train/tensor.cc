#include "train/tensor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace dapple::train {

Tensor::Tensor(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor Tensor::Random(std::size_t rows, std::size_t cols, Rng& rng, float scale) {
  Tensor t(rows, cols);
  for (float& v : t.data_) {
    v = static_cast<float>(rng.Normal(0.0, scale));
  }
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  DAPPLE_CHECK(r < rows_ && c < cols_) << "tensor index (" << r << "," << c << ") out of "
                                       << rows_ << "x" << cols_;
  return data_[r * cols_ + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  DAPPLE_CHECK(r < rows_ && c < cols_) << "tensor index (" << r << "," << c << ") out of "
                                       << rows_ << "x" << cols_;
  return data_[r * cols_ + c];
}

Tensor& Tensor::AddInPlace(const Tensor& other) {
  DAPPLE_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch in add";
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::Scale(float factor) {
  for (float& v : data_) v *= factor;
  return *this;
}

void Tensor::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

Tensor Tensor::MatMul(const Tensor& other) const {
  DAPPLE_CHECK_EQ(cols_, other.rows_) << "matmul inner dims";
  Tensor out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const float a = data_[i * cols_ + k];
      if (a == 0.0f) continue;
      const float* brow = &other.data_[k * other.cols_];
      float* orow = &out.data_[i * other.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

Tensor Tensor::Transposed() const {
  Tensor out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      out.data_[j * rows_ + i] = data_[i * cols_ + j];
    }
  }
  return out;
}

Tensor Tensor::RowSlice(std::size_t begin, std::size_t end) const {
  DAPPLE_CHECK(begin <= end && end <= rows_) << "row slice [" << begin << "," << end << ")";
  Tensor out(end - begin, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(end * cols_), out.data_.begin());
  return out;
}

Tensor Tensor::VStack(const std::vector<Tensor>& parts) {
  DAPPLE_CHECK(!parts.empty()) << "vstack of nothing";
  std::size_t rows = 0;
  const std::size_t cols = parts.front().cols_;
  for (const Tensor& p : parts) {
    DAPPLE_CHECK_EQ(p.cols_, cols) << "vstack column mismatch";
    rows += p.rows_;
  }
  Tensor out(rows, cols);
  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data_.begin(), p.data_.end(),
              out.data_.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += p.data_.size();
  }
  return out;
}

float Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  DAPPLE_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_) << "diff shape mismatch";
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    worst = std::max(worst, std::abs(a.data_[i] - b.data_[i]));
  }
  return worst;
}

}  // namespace dapple::train
