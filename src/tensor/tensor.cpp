#include "tensor/tensor.hpp"

#include <cmath>

namespace tlp::tensor {

Tensor Tensor::random(std::int64_t rows, std::int64_t cols, Rng& rng,
                      float scale) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = (rng.next_float() * 2.0f - 1.0f) * scale;
  return t;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  TLP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double worst = 0.0;
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(fa[i]) - fb[i]));
  }
  return worst;
}

bool allclose(const Tensor& a, const Tensor& ref, double rtol, double atol) {
  if (a.rows() != ref.rows() || a.cols() != ref.cols()) return false;
  const auto fa = a.flat();
  const auto fr = ref.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (fa[i] == fr[i]) continue;  // equal infinities match too
    // Negated so that a NaN on either side fails; a non-finite reference
    // matches only its equal.
    const double diff = std::abs(static_cast<double>(fa[i]) - fr[i]);
    if (!(std::isfinite(fr[i]) &&
          diff <= atol + rtol * std::abs(static_cast<double>(fr[i]))))
      return false;
  }
  return true;
}

}  // namespace tlp::tensor
