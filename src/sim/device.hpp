// Simulated GPU device facade: memory management, kernel launching, and
// profiling in one object. This is the only simulator type the kernel and
// system layers need to hold.
//
// Robustness: the device enforces the GpuSpec memory capacity (alloc beyond
// it throws tlp::OutOfMemory), can run its arena in guarded mode (redzones,
// use-after-free and write-race detection — see device_memory.hpp), and
// executes a deterministic FaultPlan: forced allocation failures, injected
// bit flips before a chosen launch (ECC-style corruption), and forced
// kernel-launch failures (tlp::LaunchFailure).
#pragma once

#include <span>
#include <string>

#include "common/rng.hpp"
#include "sim/counters.hpp"
#include "sim/device_error.hpp"
#include "sim/device_memory.hpp"
#include "sim/fault_plan.hpp"
#include "sim/gpu_spec.hpp"
#include "sim/kernel.hpp"
#include "sim/scheduler.hpp"
#include "sim/warp.hpp"

namespace tlp::sim {

struct DeviceOptions {
  MemoryMode mem_mode = MemoryMode::kFast;
  FaultPlan faults{};
};

class Device {
 public:
  explicit Device(const GpuSpec& spec = GpuSpec::v100(),
                  const DeviceOptions& opts = {})
      : sys_(spec), opts_(opts), fault_rng_(opts.faults.seed) {
    sys_.mem.set_mode(opts.mem_mode);
    sys_.mem.set_capacity(spec.memory_bytes);
    sys_.mem.set_fault_plan(opts.faults);
  }

  [[nodiscard]] const GpuSpec& spec() const { return sys_.spec; }
  [[nodiscard]] const DeviceOptions& options() const { return opts_; }
  [[nodiscard]] MemorySystem& sys() { return sys_; }
  [[nodiscard]] DeviceMemory& mem() { return sys_.mem; }

  /// Attaches (or with nullptr detaches) a tlpsan access-trace recorder.
  /// Recording covers every subsequent launch plus the allocation-lifecycle
  /// events the arena emits; the caller owns the trace and must keep it
  /// alive while attached. Costs nothing when detached.
  void attach_trace(AccessTrace* trace) {
    sys_.trace = trace;
    sys_.mem.attach_trace(trace);
  }
  [[nodiscard]] AccessTrace* trace() const { return sys_.trace; }

  /// Allocates and copies host data to the device (cudaMemcpy H2D analogue).
  /// `site` (from TLP_SITE) labels the buffer in an attached trace.
  template <class T>
  DevPtr<T> upload(std::span<const T> host,
                   const AccessSite* site = nullptr) {
    DevPtr<T> p = sys_.mem.alloc<T>(static_cast<std::int64_t>(host.size()),
                                    site);
    auto dst = sys_.mem.view(p);
    std::copy(host.begin(), host.end(), dst.begin());
    return p;
  }

  /// Allocates zero-initialized device storage. `site` labels the buffer in
  /// an attached trace.
  template <class T>
  DevPtr<T> alloc_zeroed(std::int64_t count,
                         const AccessSite* site = nullptr) {
    DevPtr<T> p = sys_.mem.alloc<T>(count, site);
    auto dst = sys_.mem.view(p);
    std::fill(dst.begin(), dst.end(), T{});
    return p;
  }

  /// Copies device data back to a host vector (cudaMemcpy D2H analogue).
  template <class T>
  [[nodiscard]] std::vector<T> download(DevPtr<T> p) const {
    auto src = sys_.mem.view(p);
    return {src.begin(), src.end()};
  }

  /// Re-arms the fault plan mid-run: allocation and launch fault counters
  /// restart relative to *now* ("the Nth allocation/launch from here"), and
  /// consumed one-shot faults reset. This is the deterministic trigger hook a
  /// serving loop uses to start (or stop — arm a FaultPlan{}) a fault storm
  /// at a chosen request.
  void arm_faults(const FaultPlan& plan) {
    opts_.faults = plan;
    launch_base_ = launch_seq_;
    launch_fault_fired_ = false;
    sys_.mem.arm_fault_plan(plan);
  }

  /// Labels injected-fault errors with the work in flight (e.g. "req 17");
  /// recorded in FaultProvenance::context. Empty clears the label.
  void set_fault_context(std::string context) {
    sys_.mem.set_fault_context(std::move(context));
  }

  /// Runs a kernel and records a launch in the profile. Applies the fault
  /// plan's launch-scoped injections first: a forced LaunchFailure, or bit
  /// flips in device memory (which the kernel then consumes — the model for
  /// undetected ECC corruption).
  KernelRecord& launch(WarpKernel& kernel, const LaunchConfig& cfg = {}) {
    ++launch_seq_;
    const FaultPlan& plan = opts_.faults;
    const std::int64_t seq = launch_seq_ - launch_base_;
    const bool one_shot = !launch_fault_fired_ && plan.fail_launch > 0 &&
                          seq == plan.fail_launch;
    const bool burst =
        FaultPlan::in_burst(seq, plan.launch_every, plan.launch_burst_len);
    if (one_shot || burst) {
      if (one_shot) launch_fault_fired_ = true;
      FaultProvenance prov;
      prov.source = FaultProvenance::Source::kInjectedLaunch;
      prov.plan_field = one_shot ? "fail_launch" : "launch_every";
      prov.plan_value = one_shot ? plan.fail_launch : plan.launch_every;
      prov.seq = seq;
      prov.context = sys_.mem.fault_context();
      LaunchFailure failure("injected launch fault: kernel '" + kernel.name() +
                                "' (launch #" + std::to_string(seq) +
                                ") failed by FaultPlan" + prov.describe(),
                            kernel.name());
      failure.provenance = std::move(prov);
      throw failure;
    }
    if (plan.flip_at_launch > 0 && seq == plan.flip_at_launch) {
      inject_bit_flips();
    }
    KernelRecord& rec = profiler_.begin_kernel(kernel.name());
    run_kernel(sys_, kernel, cfg, rec);
    return rec;
  }

  [[nodiscard]] const Profiler& profiler() const { return profiler_; }

  /// Aggregate Nsight-style metrics over all launches since the last reset.
  [[nodiscard]] Metrics metrics() const {
    Metrics m = profiler_.aggregate(sys_.spec.clock_ghz, sys_.spec.num_sms,
                                    sys_.spec.issue_width,
                                    sys_.spec.warps_per_sm);
    m.peak_device_bytes = sys_.mem.peak_bytes();
    return m;
  }

  [[nodiscard]] double gpu_time_ms() const { return metrics().gpu_time_ms; }

  /// Clears the launch profile, keeping memory and cache contents.
  void reset_profile() { profiler_.reset(); }

  /// Full reset: profile, caches, and device memory. Fault-plan progress is
  /// kept — one-shot faults stay consumed across degradation retries.
  void reset_all() {
    profiler_.reset();
    sys_.reset_caches();
    sys_.mem.reset();
  }

 private:
  void inject_bit_flips() {
    const FaultPlan& plan = opts_.faults;
    const auto& allocs = sys_.mem.allocations();
    // Candidate buffers: the chosen allocation, or any live non-empty one.
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < allocs.size(); ++i) {
      if (allocs[i].live && allocs[i].bytes > 0) live.push_back(i);
    }
    if (live.empty()) return;
    const AllocationTarget target = pick_target(live);
    for (int i = 0; i < plan.flip_bits; ++i) {
      const std::uint64_t byte =
          target.offset + fault_rng_.next_below(target.bytes);
      sys_.mem.flip_bit(byte, static_cast<int>(fault_rng_.next_below(8)));
    }
  }

  struct AllocationTarget {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
  };

  AllocationTarget pick_target(const std::vector<std::size_t>& live) {
    const auto& allocs = sys_.mem.allocations();
    const FaultPlan& plan = opts_.faults;
    if (plan.flip_alloc >= 0) {
      TLP_CHECK_MSG(plan.flip_alloc <
                        static_cast<std::int64_t>(allocs.size()),
                    "FaultPlan::flip_alloc " << plan.flip_alloc
                        << " out of range (" << allocs.size()
                        << " allocations)");
      const auto& a = allocs[static_cast<std::size_t>(plan.flip_alloc)];
      TLP_CHECK_MSG(a.live && a.bytes > 0,
                    "FaultPlan::flip_alloc targets a dead or empty buffer");
      return {a.offset, a.bytes};
    }
    const auto& a = allocs[live[static_cast<std::size_t>(
        fault_rng_.next_below(live.size()))]];
    return {a.offset, a.bytes};
  }

  MemorySystem sys_;
  DeviceOptions opts_;
  Profiler profiler_;
  Rng fault_rng_;
  std::int64_t launch_seq_ = 0;
  /// Launch count at the last arm_faults(); plan counters are evaluated
  /// against (launch_seq_ - launch_base_).
  std::int64_t launch_base_ = 0;
  bool launch_fault_fired_ = false;
};

}  // namespace tlp::sim
