// SIMD-style whole-warp register math.
//
// Kernels hold per-lane values in WVec<T> (32-lane arrays) and, between
// memory operations, transform them with elementwise loops. These helpers
// name the recurring shapes — batched over the lane dimension the way the
// warp engine batches the request path — so every kernel expresses its lane
// math through one vocabulary and the compiler sees tight counted loops it
// can auto-vectorize.
//
// Bit-exactness contract: each helper performs exactly the scalar operations
// of the loop it replaces, in the same order, on lanes [0, n). The build
// compiles with -ffp-contract=off and without -ffast-math, so hoisting the
// loop into a helper cannot change a single result bit — which is what lets
// the kernels adopt these while the mechanistic goldens stay byte-identical.
#pragma once

#include "sim/warp.hpp"

namespace tlp::sim {

/// acc[l] += a * x[l] for lanes [0, n) — the per-edge weighted accumulate at
/// the heart of every aggregation kernel.
inline void lane_axpy(WVec<float>& acc, float a, const WVec<float>& x,
                      int n = kWarpSize) {
  for (int l = 0; l < n; ++l)
    acc[static_cast<std::size_t>(l)] += a * x[static_cast<std::size_t>(l)];
}

/// v[l] *= x[l] for lanes [0, n) — elementwise products (edge-weight times
/// feature, norm-pair weights).
inline void lane_mul(WVec<float>& v, const WVec<float>& x,
                     int n = kWarpSize) {
  for (int l = 0; l < n; ++l)
    v[static_cast<std::size_t>(l)] *= x[static_cast<std::size_t>(l)];
}

/// v[l] *= a for lanes [0, n) — degree normalization, attention softmax
/// denominators.
inline void lane_scale(WVec<float>& v, float a, int n = kWarpSize) {
  for (int l = 0; l < n; ++l) v[static_cast<std::size_t>(l)] *= a;
}

/// out[l] = a * x[l] for lanes [0, n).
[[nodiscard]] inline WVec<float> lane_scaled(const WVec<float>& x, float a,
                                             int n = kWarpSize) {
  WVec<float> out{};
  for (int l = 0; l < n; ++l)
    out[static_cast<std::size_t>(l)] = a * x[static_cast<std::size_t>(l)];
  return out;
}

/// v[l] = a for all 32 lanes.
[[nodiscard]] inline WVec<float> lane_splat(float a) {
  WVec<float> v;
  for (auto& x : v) x = a;
  return v;
}

/// out[l] = int64(v[l]) for all 32 lanes — widens an i32 neighbor-id batch
/// into the i64 index vector the gather entry points take.
[[nodiscard]] inline WVec<std::int64_t> lane_widen(
    const WVec<std::int32_t>& v) {
  WVec<std::int64_t> out;
  for (std::size_t l = 0; l < static_cast<std::size_t>(kWarpSize); ++l)
    out[l] = v[l];
  return out;
}

}  // namespace tlp::sim
