// Fault-tolerance policies of the serving runtime (DESIGN.md §11).
//
// Three cooperating pieces, all operating in *simulated* time so every run
// is deterministic:
//  - RetryPolicy: exponential backoff with seeded jitter between direct
//    re-attempts of a failed request.
//  - FallbackPolicy: when the direct ladder is exhausted, degrade to the
//    bit-identical partitioned path (systems/partitioned.*), doubling the
//    part count per attempt.
//  - CircuitBreaker: counts consecutive direct-path failures; after the
//    threshold it *opens* and the server routes requests straight to the
//    fallback (no doomed direct attempts) until a cooldown elapses, then a
//    half-open trial decides whether to close again. Classic
//    closed -> open -> half-open -> {closed | open} state machine.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace tlp::serve {

struct RetryPolicy {
  /// Direct re-attempts after the first failure (total direct attempts is
  /// 1 + max_retries).
  int max_retries = 2;
  /// Backoff before the first retry; it doubles with every further retry.
  double base_delay_ms = 0.5;
  /// Uniform jitter as a fraction of the nominal delay: the actual delay is
  /// nominal * (1 - jitter + 2 * jitter * u), u ~ U[0,1) from a seeded rng.
  double jitter_frac = 0.2;

  /// Simulated backoff before retry number `retry` (0-based).
  [[nodiscard]] double delay_ms(int retry, Rng& rng) const;
};

struct FallbackPolicy {
  int initial_partitions = 2;
  /// Partitioned attempts (part count doubles per attempt).
  int max_attempts = 2;
};

struct BreakerPolicy {
  /// Consecutive direct-path failures that open the circuit.
  int failure_threshold = 4;
  /// Simulated time the circuit stays open before a half-open trial.
  double cooldown_ms = 50.0;
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(const BreakerPolicy& policy) : policy_(policy) {}

  /// Whether a direct attempt may run at simulated time `now_ms`. An open
  /// circuit whose cooldown has elapsed transitions to half-open (and
  /// permits exactly the caller's trial).
  [[nodiscard]] bool allow(double now_ms);

  void record_success();
  void record_failure(double now_ms);

  [[nodiscard]] State state() const { return state_; }
  /// Times the breaker transitioned closed/half-open -> open.
  [[nodiscard]] std::int64_t opens() const { return opens_; }

 private:
  BreakerPolicy policy_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  double opened_at_ms_ = 0;
  std::int64_t opens_ = 0;
};

}  // namespace tlp::serve
