// Per-kernel counters collected while kernels execute on the simulator, plus
// the derived Nsight-style metrics the paper reports (§2.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tlp::sim {

/// Raw accounting for one kernel launch. Functional execution fills the
/// traffic/latency fields; the scheduler fills the elapsed/occupancy fields.
struct KernelRecord {
  std::string name;

  // --- execution shape -----------------------------------------------------
  std::int64_t warps = 0;
  std::int64_t blocks = 0;
  int warps_per_block = 0;

  // --- issue & latency (summed over warps) ---------------------------------
  double issue_cycles = 0;      ///< warp-instructions issued
  double mem_stall_cycles = 0;  ///< raw load-to-use latency accumulated
  double atomic_stall_cycles = 0;

  // --- memory system ---------------------------------------------------
  std::int64_t requests = 0;  ///< warp-level global memory requests
  std::int64_t sectors = 0;   ///< 32 B sectors those requests touched
  std::int64_t bytes_load = 0;    ///< L1-miss load traffic (L1<->L2 bus)
  std::int64_t bytes_store = 0;   ///< store traffic (write-through L1)
  std::int64_t bytes_atomic = 0;  ///< atomic traffic (bypasses L1)
  std::int64_t bytes_dram = 0;    ///< L2-miss traffic
  std::int64_t l1_accesses = 0, l1_hits = 0;
  std::int64_t l2_accesses = 0, l2_hits = 0;
  std::int64_t atomic_ops = 0;

  // --- timing (scheduler output) -------------------------------------------
  double elapsed_cycles = 0;
  double resident_warp_integral = 0;  ///< ∫ resident warps dt, all SMs
  double launch_overhead_us = 0;      ///< device-side launch cost
};

/// Metrics aggregated over one or more kernel launches — the quantities
/// Tables 1–3 and Figures 8–9 print, and the values tlpbench serializes
/// into the `tlpbench-v1` JSON schema (DESIGN.md §9). Each field names the
/// Nsight Compute / Systems metric it stands in for, so numbers read off a
/// real profiler line up one-to-one with the simulated counters.
struct Metrics {
  /// Count of device kernel launches. Nsight Systems: rows in the CUDA
  /// kernel trace (`cudaLaunchKernel` count). Unit: launches.
  int kernel_launches = 0;
  /// Sum of kernel elapsed time plus device-side launch overhead. Nsight
  /// Compute: `gpu__time_duration.sum` summed over launches. Unit: ms.
  double gpu_time_ms = 0;

  /// Global load traffic that missed L1 (the L1<->L2 bus). Nsight Compute:
  /// `l1tex__m_xbar2l1tex_read_bytes.sum`. Unit: bytes.
  double bytes_load = 0;
  /// Store traffic through the write-through L1. Nsight Compute:
  /// `l1tex__m_l1tex2xbar_write_bytes.sum`. Unit: bytes.
  double bytes_store = 0;
  /// Atomic/reduction traffic (bypasses L1, serializes on conflicts — the
  /// quantity Figure 8 plots). Nsight Compute:
  /// `l1tex__t_bytes_pipe_lsu_mem_global_op_red.sum` (+`_op_atom`).
  /// Unit: bytes.
  double bytes_atomic = 0;
  /// Traffic that missed L2 and reached device memory. Nsight Compute:
  /// `dram__bytes.sum`. Unit: bytes.
  double bytes_dram = 0;

  /// Average 32 B sectors touched per warp-level global memory request —
  /// the coalescing quality metric of Table 2 (1 = perfectly coalesced 32 b
  /// loads ≈ 4, scattered ≈ 32). Nsight Compute:
  /// `l1tex__average_t_sectors_per_request_pipe_lsu_mem_global_op_ld`.
  /// Unit: sectors/request.
  double sectors_per_request = 0;
  /// Fraction of L1 global-load accesses served from L1. Nsight Compute:
  /// `l1tex__t_sector_hit_rate.pct` (as a fraction here). Unit: 0..1.
  double l1_hit_rate = 0;
  /// Average memory-stall cycles per issued warp-instruction ("stall long
  /// scoreboard" in the paper's tables — waiting on an outstanding global
  /// load). Nsight Compute:
  /// `smsp__average_warp_latency_issue_stalled_long_scoreboard`.
  /// Unit: cycles/instruction.
  double scoreboard_stall = 0;
  /// Fraction of issue slots used while kernels were resident. Nsight
  /// Compute: `smsp__issue_active.avg.pct_of_peak_sustained_elapsed`
  /// (as a fraction here). Unit: 0..1.
  double sm_utilization = 0;
  /// Time-weighted resident warps / max resident warps — Figure 9's metric.
  /// Nsight Compute: `sm__warps_active.avg.pct_of_peak_sustained_active`
  /// (as a fraction here). Unit: 0..1.
  double achieved_occupancy = 0;

  /// High-water mark of device allocations. CUDA analogue: `cudaMemGetInfo`
  /// delta (or `nvidia-smi` memory at peak). Unit: bytes.
  std::int64_t peak_device_bytes = 0;

  /// Feature-gather rows served from the serving tier's pinned cache region
  /// (serve::FeatureCache). Nsight Compute analogue: `dram__bytes_read.sum`
  /// scoped to the cache allocation — device-local, coalesced. Zero unless
  /// a cache is attached. Unit: bytes.
  double bytes_cache_hit = 0;
  /// Feature-gather rows that missed the cache and crossed the host link.
  /// Nsight Systems analogue: H2D memcpy bytes on the PCIe timeline for the
  /// serving session. Zero unless a cache is attached. Unit: bytes.
  double bytes_cache_miss = 0;
};

/// Collects KernelRecords for a sequence of launches and derives Metrics.
class Profiler {
 public:
  KernelRecord& begin_kernel(std::string name);
  [[nodiscard]] const std::vector<KernelRecord>& records() const {
    return records_;
  }
  [[nodiscard]] KernelRecord& current() { return records_.back(); }

  /// Aggregate metrics over all recorded launches. `spec_*` arguments come
  /// from the GpuSpec that produced the records.
  [[nodiscard]] Metrics aggregate(double clock_ghz, int num_sms,
                                  int issue_width, int warps_per_sm) const;

  void reset() { records_.clear(); }

 private:
  std::vector<KernelRecord> records_;
};

}  // namespace tlp::sim
