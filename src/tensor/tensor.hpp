// Minimal dense row-major float tensor used for vertex/edge feature matrices
// and the dense (non-convolution) phases of each GNN layer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace tlp::tensor {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::int64_t rows, std::int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols), 0.0f) {
    TLP_CHECK(rows >= 0 && cols >= 0);
  }

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t size() const { return rows_ * cols_; }

  [[nodiscard]] float& at(std::int64_t r, std::int64_t c) {
    TLP_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  [[nodiscard]] float at(std::int64_t r, std::int64_t c) const {
    TLP_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  [[nodiscard]] std::span<float> row(std::int64_t r) {
    return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
  }
  [[nodiscard]] std::span<const float> row(std::int64_t r) const {
    return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
  }

  [[nodiscard]] std::span<float> flat() { return data_; }
  [[nodiscard]] std::span<const float> flat() const { return data_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Uniform [-scale, scale) initialization (the paper initializes features
  /// and weights to random 32-bit floats).
  static Tensor random(std::int64_t rows, std::int64_t cols, Rng& rng,
                       float scale = 1.0f);

  friend bool operator==(const Tensor&, const Tensor&) = default;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<float> data_;
};

/// Max absolute elementwise difference; tensors must have equal shape.
double max_abs_diff(const Tensor& a, const Tensor& b);

/// True if shapes match and each element equals its reference or lies
/// within atol + rtol*|ref| of a finite one. NaN never matches.
bool allclose(const Tensor& a, const Tensor& ref, double rtol = 1e-4,
              double atol = 1e-5);

}  // namespace tlp::tensor
