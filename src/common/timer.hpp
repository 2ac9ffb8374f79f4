// Wall-clock timing helpers for host-side measurements (preprocessing cost,
// framework dispatch overhead, benchmark harness timing).
#pragma once

#include <chrono>
#include <cstdint>

namespace tlp {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() { reset(); }

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tlp
