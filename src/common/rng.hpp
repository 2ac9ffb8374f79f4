// Deterministic, fast pseudo-random number generation.
//
// All stochastic pieces of the library (graph generators, feature
// initialization, dropout) take an explicit Rng so every experiment is
// reproducible from a single seed.
#pragma once

#include <cstdint>

namespace tlp {

/// splitmix64 — used to expand a single seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator. Small, fast, and good enough for workload
/// synthesis; not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform in [0, 1).
  float next_float();

  /// Uniform integer in [lo, hi) — requires lo < hi.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi);

  /// Uniform integer in [0, n) — requires n > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Standard normal via Box–Muller.
  double next_normal();

  /// Bernoulli trial with probability p of returning true.
  bool next_bool(double p);

  /// A fresh generator seeded from this one (for independent streams).
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace tlp
