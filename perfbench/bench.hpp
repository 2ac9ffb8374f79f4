// Shared pieces of the benchmark driver: run options, the per-workload
// result, and the repetition helpers every workload uses.
//
// Timing model of one run (see README.md):
//   set-up   repeated kSetupReps times; setup_s is the median.
//   warm-up  one untimed pass (checked like every other pass).
//   passes   repeated while another pass fits in --seconds; run_s is the
//            median pass. A traced run alternates traced and untraced
//            passes, and the difference of their medians is the tracing
//            overhead.
// Every host time is calibrated to the reference speed by the SpeedProbe
// runs around it (calibrate.hpp); the raw seconds are printed beside it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "common/timer.hpp"
#include "sim/counters.hpp"
#include "systems/system.hpp"
#include "tracer.hpp"

namespace tlp::perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Runs the untimed warm-up with tracing off, so per-layer medians cover
/// only set-ups and timed passes.
template <class F>
void warm_up(Tracer& tracer, F&& fn) {
  const bool on = tracer.enabled();
  tracer.set_enabled(false);
  fn();
  tracer.set_enabled(on);
}

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Raw host seconds of one pass or one set-up, and the median probe time
/// around it.
struct PassSample {
  double run_s = 0;    ///< the timed calls into the library (or the set-up)
  double check_s = 0;  ///< the reference check
  double probe_s = 0;

  [[nodiscard]] double slowdown() const {
    return SpeedProbe::slowdown(probe_s);
  }
};

/// Median over `samples` of `field`, raw or calibrated to the reference
/// speed.
inline double median_of(const std::vector<PassSample>& samples,
                        double PassSample::*field, bool calibrated) {
  std::vector<double> v;
  for (const PassSample& p : samples)
    v.push_back(p.*field / (calibrated ? p.slowdown() : 1.0));
  return median(std::move(v));
}

struct PassTimes {
  std::vector<PassSample> setups;
  std::vector<PassSample> untraced;
  std::vector<PassSample> traced;

  [[nodiscard]] double setup_s(bool calibrated = true) const {
    return median_of(setups, &PassSample::run_s, calibrated);
  }
  [[nodiscard]] double run_s(bool calibrated = true) const {
    return median_of(untraced, &PassSample::run_s, calibrated);
  }
  [[nodiscard]] double check_s(bool calibrated = true) const {
    return median_of(untraced, &PassSample::check_s, calibrated);
  }
  /// Median slowdown of the untraced passes against the reference speed.
  [[nodiscard]] double slowdown() const {
    return SpeedProbe::slowdown(
        median_of(untraced, &PassSample::probe_s, false));
  }
  [[nodiscard]] double trace_overhead_s() const {
    return median_of(traced, &PassSample::run_s, true) - run_s();
  }
};

/// One named metric with its unit and the clock it is measured on.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;  ///< "host", "simulated" or "-"
};

struct WorkloadResult {
  std::string inputs;  ///< one-line description of the generated inputs
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False when repetitions of the same pass disagreed on the digest, or a
  /// serving session left requests unaccounted.
  bool deterministic = true;
  /// The metrics BENCHMARK.json bounds; every workload reports all of them.
  std::vector<Metric> end_to_end;
  /// End-to-end metrics printed beside them: the simulated-time ones and
  /// those that apply to one workload only.
  std::vector<Metric> specific;
  /// Per-layer metrics (traced run).
  std::map<std::string, double> layers;
  std::string digest;
  std::vector<std::string> notes;  ///< correctness and fidelity lines
  PassTimes passes;                ///< every set-up and timed pass
};

WorkloadResult run_conv_large(const RunOptions& opt, Tracer& tracer);
WorkloadResult run_sweep(const RunOptions& opt, Tracer& tracer);
WorkloadResult run_serve(const RunOptions& opt, Tracer& tracer);

inline constexpr int kSetupReps = 3;

/// Nearest-rank percentile, the rule SloReport uses for p50/p99.
inline double nearest_rank(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<std::int64_t>(xs.size());
  const auto idx = static_cast<std::int64_t>(std::ceil(q * n)) - 1;
  return xs[static_cast<std::size_t>(std::clamp<std::int64_t>(idx, 0, n - 1))];
}

/// Runs `setup` kSetupReps times inside "setup" spans, each bracketed by
/// probes; returns one sample per set-up (its host seconds in run_s).
template <class F>
std::vector<PassSample> repeat_setup(Tracer& tracer, SpeedProbe& probe,
                                     F&& setup) {
  std::vector<PassSample> reps;
  for (int i = 0; i < kSetupReps; ++i) {
    tracer.set_rep("setup" + std::to_string(i));
    probe.take();  // forget earlier probes
    probe.run();
    PassSample rep;
    const Timer t;
    {
      const auto s = tracer.span("setup");
      setup();
    }
    rep.run_s = t.seconds();
    probe.run();
    rep.probe_s = probe.take();
    reps.push_back(rep);
  }
  return reps;
}

/// Calls `pass()` (which returns a PassSample of raw times and calls
/// probe.between_units() between its timed units) while the next pass,
/// taken to last as long as the longest so far, ends within opt.seconds —
/// and always at least once untraced and, in a traced run, at least once
/// traced too. Each pass is bracketed by probes.
template <class F>
PassTimes repeat_passes(const RunOptions& opt, Tracer& tracer,
                        SpeedProbe& probe, F&& pass) {
  PassTimes p;
  const Timer budget;
  double longest = 0;
  for (int i = 0; budget.seconds() + longest <= opt.seconds ||
                  p.untraced.empty() || (opt.trace && p.traced.empty());
       ++i) {
    const bool traced = opt.trace && i % 2 == 0;
    tracer.set_enabled(traced);
    tracer.set_rep("pass" + std::to_string(i));
    const Timer t;
    probe.take();
    probe.run();
    PassSample sample;
    {
      const auto s = tracer.span("pass", i);
      sample = pass();
    }
    probe.run();
    sample.probe_s = probe.take();
    (traced ? p.traced : p.untraced).push_back(sample);
    longest = std::max(longest, t.seconds());
  }
  tracer.set_enabled(opt.trace);
  return p;
}

/// Simulated counters summed over a set of kernel launches.
struct SimTotals {
  std::int64_t launches = 0;
  std::int64_t requests = 0;
  std::int64_t sectors = 0;
  std::int64_t l1_accesses = 0, l1_hits = 0;
  std::int64_t l2_accesses = 0, l2_hits = 0;
  std::int64_t atomic_ops = 0;
  std::int64_t bytes_dram = 0;
  double measured_ms = 0;  ///< Σ RunResult::measured_ms

  void add(const systems::RunResult& r,
           const std::vector<sim::KernelRecord>& records) {
    measured_ms += r.measured_ms;
    for (const sim::KernelRecord& k : records) {
      ++launches;
      requests += k.requests;
      sectors += k.sectors;
      l1_accesses += k.l1_accesses;
      l1_hits += k.l1_hits;
      l2_accesses += k.l2_accesses;
      l2_hits += k.l2_hits;
      atomic_ops += k.atomic_ops;
      bytes_dram += k.bytes_dram;
    }
  }
  void add(const SimTotals& o) {
    launches += o.launches;
    requests += o.requests;
    sectors += o.sectors;
    l1_accesses += o.l1_accesses;
    l1_hits += o.l1_hits;
    l2_accesses += o.l2_accesses;
    l2_hits += o.l2_hits;
    atomic_ops += o.atomic_ops;
    bytes_dram += o.bytes_dram;
    measured_ms += o.measured_ms;
  }
};

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// `m[name]`, or 0 when the layer did not run.
inline double value_or_zero(const std::map<std::string, double>& m,
                            const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

/// Sets the BENCHMARK.json end-to-end metrics (setup_s, run_s, wall_s from
/// the calibrated times of `t`; peak_rss_mb) and adds sim_mreq_per_s, the
/// simulated warp `requests` of one pass per calibrated host second, to the
/// unbounded ones: on serve it moves with the seed's traffic.
void add_host_metrics(WorkloadResult& res, const PassTimes& t,
                      std::int64_t requests);

/// Simulated latency of one operation (a convolution or a served request),
/// p50 and p99 by nearest rank over one pass: printed as end-to-end
/// sim_p50_ms / sim_p99_ms and recorded as layers sim.op_p50_ms /
/// sim.op_p99_ms. They are not bounded in BENCHMARK.json: they move with the
/// seed's graph (a hub vertex can add 50% on conv-large), and a host-only
/// change must leave them bit-identical, which the digest checks.
void add_op_latency(WorkloadResult& res, const std::vector<double>& op_ms);

/// Per-layer simulated-counter metrics of `t` (hit rates, sectors per
/// request, atomics, DRAM bytes).
void add_sim_layers(std::map<std::string, double>& layers, const SimTotals& t);

}  // namespace tlp::perfbench
