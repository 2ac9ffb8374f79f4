// Hardware description consumed by the SIMT simulator. Defaults model the
// NVIDIA Tesla V100 (SXM2 32GB) the paper evaluates on; every constant is a
// plain data member so experiments can sweep alternative machines.
#pragma once

#include <cstdint>

namespace tlp::sim {

struct GpuSpec {
  // --- execution resources -------------------------------------------------
  int num_sms = 80;
  int warps_per_sm = 64;        ///< max resident warps per SM
  int max_blocks_per_sm = 32;   ///< hardware block-slot limit
  int warp_size = 32;
  int max_threads_per_block = 1024;
  /// Per-SM thread-slot limit (V100: 2048). Bounds residency together with
  /// the warp-slot and block-slot limits; on architectures where this is
  /// smaller than warps_per_sm * warp_size (e.g. Turing's 1024 slots with
  /// 32 KB register files) the thread limit binds first for wide blocks.
  int max_threads_per_sm = 2048;
  /// Warp-instructions issued per SM per cycle (4 schedulers on V100).
  int issue_width = 4;

  // --- memory hierarchy ----------------------------------------------------
  /// Device global-memory capacity (V100 SXM2: 32 GB). The simulated arena
  /// refuses allocations beyond this with tlp::OutOfMemory — the signal the
  /// engine's partitioned fallback degrades on. 0 = unlimited.
  std::int64_t memory_bytes = 32LL << 30;
  std::int64_t l1_bytes = 128 << 10;  ///< per-SM combined L1/shared
  int l1_ways = 4;
  std::int64_t l2_bytes = 6 << 20;
  int l2_ways = 16;
  int line_bytes = 128;
  int sector_bytes = 32;

  double clock_ghz = 1.38;
  /// DRAM bandwidth expressed per GPU clock: ~900 GB/s / 1.38 GHz.
  double dram_bytes_per_cycle = 652.0;
  double l2_bytes_per_cycle = 1600.0;

  // Load-to-use latencies (cycles), typical V100 microbenchmark values.
  double l1_latency = 28.0;
  double l2_latency = 193.0;
  double dram_latency = 420.0;
  /// Independent loads a warp keeps in flight before the scoreboard stalls
  /// it (memory-level parallelism within one warp). Atomics never pipeline.
  double load_pipeline_depth = 4.0;

  // --- atomics -------------------------------------------------------------
  /// Extra latency charged per additional lane contending on one address
  /// (atomic replays serialize at the L2 atomic units).
  double atomic_replay_cycles = 36.0;
  /// Base latency of a global atomic (round trip to L2 atomic unit).
  double atomic_latency = 210.0;
  /// Whole-GPU retirement rate of global atomic operations (the L2 atomic
  /// units process roughly one op per slice per cycle). This throughput
  /// floor is what makes atomic-heavy kernels slow even at full occupancy —
  /// the paper's Observation I.
  double atomic_ops_per_cycle = 24.0;
  /// Serialization gap between successive grabs of the software work pool's
  /// single global counter (Algorithm 1): the L2 atomic unit completes one
  /// fetch-add on a given address every few cycles.
  double pool_grab_gap_cycles = 8.0;

  // --- scheduling ----------------------------------------------------------
  /// Cycles the GigaThread engine needs to set up a block on an SM — this is
  /// the "hardware scheduling overhead" the paper's hybrid heuristic trades
  /// against workload balance (§5).
  double block_dispatch_cycles = 250.0;
  /// Device-side cost of one kernel launch, microseconds.
  double kernel_launch_us = 4.0;
  /// Cap on how many resident warps' worth of latency hiding one warp can
  /// enjoy (memory-level parallelism limit).
  int latency_hiding_cap = 32;

  /// The paper's evaluation machine.
  static GpuSpec v100() { return GpuSpec{}; }

  /// A proportionally scaled-down V100 for scaled-down dataset replicas:
  /// dividing SM count, cache capacities, and bandwidth by `divisor` keeps
  /// the machine balance (working set : cache, compute : bandwidth) of the
  /// full-size experiment, so cache-residency effects match the paper's
  /// scale instead of vanishing on a small replica. Latencies and the warp
  /// model are per-SM properties and stay fixed.
  static GpuSpec v100_scaled(int divisor);
};

}  // namespace tlp::sim
