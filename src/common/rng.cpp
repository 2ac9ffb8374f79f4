#include "common/rng.hpp"

#include <cmath>

#include "common/check.hpp"

namespace tlp {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::next_float() {
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
}

std::int64_t Rng::next_range(std::int64_t lo, std::int64_t hi) {
  TLP_DCHECK(lo < hi);
  return lo +
         static_cast<std::int64_t>(next_below(static_cast<std::uint64_t>(hi - lo)));
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  TLP_DCHECK(n > 0);
  // Lemire's multiply-shift with rejection to remove modulo bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_normal() {
  // Box–Muller; discard the second deviate for simplicity.
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

bool Rng::next_bool(double p) { return next_double() < p; }

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace tlp
