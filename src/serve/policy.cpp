#include "serve/policy.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace tlp::serve {

namespace {

/// Per-retry exponential growth of the nominal backoff.
constexpr double kBackoffMultiplier = 2.0;

}  // namespace

double RetryPolicy::delay_ms(int retry, Rng& rng) const {
  TLP_CHECK_GE(retry, 0);
  const double nominal =
      base_delay_ms * std::pow(kBackoffMultiplier, static_cast<double>(retry));
  const double jitter = std::clamp(jitter_frac, 0.0, 1.0);
  // One rng draw regardless of jitter so the stream stays aligned across
  // configurations.
  const double u = rng.next_double();
  return nominal * (1.0 - jitter + 2.0 * jitter * u);
}

bool CircuitBreaker::allow(double now_ms) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kHalfOpen:
      return true;
    case State::kOpen:
      if (now_ms - opened_at_ms_ >= policy_.cooldown_ms) {
        state_ = State::kHalfOpen;
        return true;
      }
      return false;
  }
  return true;  // unreachable
}

void CircuitBreaker::record_success() {
  consecutive_failures_ = 0;
  state_ = State::kClosed;
}

void CircuitBreaker::record_failure(double now_ms) {
  if (state_ == State::kHalfOpen) {
    // The trial failed: straight back to open, fresh cooldown.
    state_ = State::kOpen;
    opened_at_ms_ = now_ms;
    ++opens_;
    return;
  }
  ++consecutive_failures_;
  if (state_ == State::kClosed &&
      consecutive_failures_ >= policy_.failure_threshold) {
    state_ = State::kOpen;
    opened_at_ms_ = now_ms;
    ++opens_;
  }
}

}  // namespace tlp::serve
