// tlpsan pass framework. Two pass families share one diagnostics pipeline:
//
//  - Pass: inspects ONE kernel launch's access trace. Launch-local
//    properties (races, coalescing, divergence, contention, per-warp
//    balance) need no cross-launch state.
//  - WholeTracePass: inspects the ENTIRE trace — every launch plus the
//    allocation-lifecycle events DeviceMemory records (MemEvent) — for
//    properties that only exist across launches: buffer lifetimes,
//    initialization state, reuse distance against the L2.
//
// Passes are pure trace consumers — they never touch the simulator — so they
// compose freely and are trivially testable against seeded kernels
// (tests/test_analysis.cpp).
//
// Per-launch passes (default_passes):
//   RacePass             TLP-RACE-001  happens-before race detection
//   CoalescingPass       TLP-COAL-002  uncoalesced access sites
//   DivergencePass       TLP-DIV-003   lane-activity imbalance
//   AtomicContentionPass TLP-ATOM-004  hottest atomic addresses
//   RedundantLoadPass    TLP-RED-005   re-fetched addresses (register
//                                      caching candidates)
//   BalancePass          TLP-BAL-008   inter-warp load imbalance
//
// Whole-trace passes (default_whole_trace_passes):
//   InitPass             TLP-INIT-006  read-before-first-write
//   LifetimePass         TLP-LIFE-007  dead / write-only buffers
//   ReusePass            TLP-REUSE-009 reuse-distance thrashing vs the L2
//
// The driver (analyze_trace) additionally emits TLP-META-000 when the trace
// was truncated by its byte budget: coverage is incomplete and the
// whole-trace family skips entirely (lifetime claims over a trace with holes
// would be fabrications).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "sim/gpu_spec.hpp"
#include "sim/trace.hpp"

namespace tlp::analysis {

/// What a lint run reasons against. Each pass's thresholds are constants in
/// its own source file, calibrated so the paper's *intended* kernel
/// properties pass cleanly and the known pathologies (edge-centric column
/// reads, push-kernel hub contention, warp-per-vertex degree skew) fire.
struct PassOptions {
  // Cache geometry the whole-trace passes reason against (ReusePass). The
  // lint driver passes the scaled replica it simulates on.
  sim::GpuSpec gpu = sim::GpuSpec::v100();

  // Driver knob (lint_systems / lint_serve, tlplint --max-trace-mb): byte
  // budget of each run's AccessTrace. Exceeding it truncates the trace,
  // which downgrades analysis to the per-launch prefix + TLP-META-000.
  std::size_t trace_max_bytes = std::size_t{1} << 30;
};

class Pass {
 public:
  virtual ~Pass() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// The single rule id this pass emits.
  [[nodiscard]] virtual std::string rule() const = 0;

  /// Analyzes one kernel launch; appends findings to `out`. The driver fills
  /// system/dataset fields and applies site suppressions afterwards.
  virtual void run(const sim::KernelTrace& kt, const PassOptions& opt,
                   std::vector<Diagnostic>& out) const = 0;
};

/// A pass over the whole trace: every launch in order plus the
/// allocation-lifecycle events (MemEvent) DeviceMemory recorded. The only
/// family that can reason about buffers across launches.
class WholeTracePass {
 public:
  virtual ~WholeTracePass() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// The single rule id this pass emits.
  [[nodiscard]] virtual std::string rule() const = 0;

  /// Analyzes the full trace; appends findings to `out`. Never called on a
  /// truncated trace (the driver skips the family and emits TLP-META-000
  /// instead).
  virtual void run(const sim::AccessTrace& trace, const PassOptions& opt,
                   std::vector<Diagnostic>& out) const = 0;
};

/// The per-launch stock passes, in rule-id order.
std::vector<std::unique_ptr<Pass>> default_passes();

/// The whole-trace stock passes, in rule-id order.
std::vector<std::unique_ptr<WholeTracePass>> default_whole_trace_passes();

/// Runs both pass families over `trace` — every per-launch pass on every
/// kernel launch, then every whole-trace pass on the trace as a whole —
/// resolves site suppressions (a diagnostic whose primary site expects its
/// rule is marked suppressed and downgraded to a note), and returns the
/// combined findings. A truncated trace skips the whole-trace family and
/// yields a TLP-META-000 note instead.
std::vector<Diagnostic> analyze_trace(const sim::AccessTrace& trace,
                                      const PassOptions& opt = {});

}  // namespace tlp::analysis
