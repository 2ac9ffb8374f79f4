// Host-speed calibration of the benchmark's timings.
//
// The benchmark runs on shared machines whose speed drifts by 15-35% over
// tens of seconds as other tenants load the host, and a slow phase often
// outlasts a whole run. No estimator over one run's own pass times removes
// that. So every timed phase is bracketed by a fixed probe computation that
// does not depend on the library: a small set-associative tag store driven
// by a xorshift stream, which stays in the private L2 cache and runs the
// same mix of dependent loads, short scans and data-dependent branches as
// the simulator's cache model. A host time is reported at the reference
// speed: measured seconds × kReferenceProbeSeconds ÷ the median probe time
// around the measurement. The probe runs between timed units on the same
// thread, never concurrently with the program, so a program that uses more
// cores neither slows the probe nor gains from it. Raw seconds and the
// probe's speed factor are printed beside every calibrated metric.
#pragma once

#include <cstdint>
#include <vector>

#include "common/timer.hpp"

namespace tlp::perfbench {

/// Median seconds of one probe on the reference machine (a shared 4-vCPU
/// Intel Xeon virtual machine in a quiet phase). Changing it rescales every
/// calibrated time and breaks comparison with earlier results.
inline constexpr double kReferenceProbeSeconds = 0.0135;

class SpeedProbe {
 public:
  SpeedProbe();

  /// Runs the probe once and records its time.
  void run();

  /// Runs the probe when at least kInterval seconds have passed since the
  /// last one. Call between timed units, outside their timers.
  void between_units() {
    if (since_.seconds() >= kInterval) run();
  }

  /// Median probe time since the last take(), which forgets them. Runs the
  /// probe first if none was recorded.
  double take();

  /// Reference-speed factor of a probe time: > 1 when the host ran slower
  /// than the reference machine.
  static double slowdown(double probe_s) {
    return probe_s / kReferenceProbeSeconds;
  }

 private:
  static constexpr double kInterval = 0.25;

  std::vector<std::uint64_t> tags_;
  std::vector<double> samples_;
  Timer since_;
};

}  // namespace tlp::perfbench
