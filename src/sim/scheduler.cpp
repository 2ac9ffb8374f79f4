#include "sim/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace tlp::sim {

int resident_blocks_per_sm(const GpuSpec& spec, int warps_per_block) {
  const int by_warps = std::max(1, spec.warps_per_sm / warps_per_block);
  const int by_threads = std::max(
      1, spec.max_threads_per_sm / (spec.warp_size * warps_per_block));
  return std::min({spec.max_blocks_per_sm, by_warps, by_threads});
}

namespace {

/// Reusable per-launch buffers. The simulator is single-threaded and kernels
/// never launch kernels (run_item is leaf compute), so one scratch set per
/// thread serves every run_* call without per-launch heap churn.
struct SchedulerScratch {
  std::vector<double> durations;
  std::vector<double> slot_heap;
  std::vector<std::pair<double, std::int64_t>> pool_heap;
};

SchedulerScratch& scratch() {
  static thread_local SchedulerScratch s;
  return s;
}

/// Greedy slot schedule: `slots` servers process block durations in order;
/// returns the makespan and accumulates Σ duration per block into
/// `service_integral` (used for the occupancy integral). The min-heap lives
/// in scratch so repeated launches reuse its storage.
double slot_makespan(const std::vector<double>& durations, int slots,
                     double dispatch_cycles, double* service_sum) {
  TLP_CHECK(slots >= 1);
  std::vector<double>& heap = scratch().slot_heap;
  heap.assign(static_cast<std::size_t>(slots), 0.0);  // all-zero is a heap
  double makespan = 0.0;
  double service = 0.0;
  for (const double d : durations) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const double start = heap.back();
    const double end = start + dispatch_cycles + d;
    service += dispatch_cycles + d;
    makespan = std::max(makespan, end);
    heap.back() = end;
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  if (service_sum != nullptr) *service_sum = service;
  return makespan;
}

/// Throughput floors: a kernel can never finish faster than its issue work,
/// L2-bus traffic, DRAM traffic, or atomic ops allow. A grid too small to
/// occupy every SM only commands a proportional share of the machine's
/// bandwidth — one SM cannot stream the whole HBM (this is what makes the
/// Figure 11 thread-count sweep scale).
double throughput_floor(const GpuSpec& spec, const KernelRecord& rec) {
  const double active_sms = static_cast<double>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(rec.blocks, spec.num_sms)));
  const double share = active_sms / spec.num_sms;
  const double issue_floor =
      rec.issue_cycles / (static_cast<double>(spec.issue_width) * active_sms);
  const double l2_bytes = static_cast<double>(rec.bytes_load + rec.bytes_store +
                                              rec.bytes_atomic);
  const double l2_floor = l2_bytes / (spec.l2_bytes_per_cycle * share);
  const double dram_floor =
      static_cast<double>(rec.bytes_dram) / (spec.dram_bytes_per_cycle * share);
  const double atomic_floor =
      static_cast<double>(rec.atomic_ops) / (spec.atomic_ops_per_cycle * share);
  return std::max({issue_floor, l2_floor, dram_floor, atomic_floor});
}

void finalize_timing(const GpuSpec& spec, KernelRecord& rec, double makespan,
                     double resident_integral) {
  const double floor = throughput_floor(spec, rec);
  const double elapsed = std::max(makespan, floor);
  rec.elapsed_cycles = elapsed;
  // If a throughput floor stretched the kernel, resident blocks simply stay
  // resident (stalled) longer — scale the occupancy integral accordingly.
  if (makespan > 0.0 && elapsed > makespan) {
    resident_integral *= elapsed / makespan;
  }
  rec.resident_warp_integral = resident_integral;
  rec.launch_overhead_us += spec.kernel_launch_us;
}

void run_hardware_dynamic(MemorySystem& sys, WarpKernel& kernel,
                          const LaunchConfig& cfg, KernelRecord& rec) {
  const GpuSpec& spec = sys.spec;
  const std::int64_t n = kernel.num_items();
  const int wpb = std::max(1, cfg.warps_per_block);
  const std::int64_t blocks = (n + wpb - 1) / wpb;
  rec.blocks = blocks;
  rec.warps_per_block = wpb;

  std::vector<double>& durations = scratch().durations;
  durations.clear();
  durations.reserve(static_cast<std::size_t>(blocks));
  double resident_integral = 0.0;
  WarpCtx warp(sys, 0);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const int sm = static_cast<int>(b % spec.num_sms);
    double block_serial = 0.0;
    int block_warps = 0;
    const std::int64_t lo = b * wpb;
    const std::int64_t hi = std::min<std::int64_t>(n, lo + wpb);
    for (std::int64_t item = lo; item < hi; ++item) {
      warp.reassign(sm, /*warp_id=*/item);
      warp.begin_item(item);
      kernel.run_item(warp, item);
      rec.issue_cycles += warp.issue_cycles();
      rec.mem_stall_cycles += warp.mem_cycles();
      rec.warps++;
      ++block_warps;
      block_serial = std::max(block_serial, warp.total_cycles());
    }
    durations.push_back(block_serial);
    resident_integral += block_serial * block_warps;
  }

  const int slots =
      spec.num_sms * resident_blocks_per_sm(spec, wpb);
  const double makespan = slot_makespan(durations, slots,
                                        spec.block_dispatch_cycles, nullptr);
  finalize_timing(spec, rec, makespan, resident_integral);
}

void run_static_chunk(MemorySystem& sys, WarpKernel& kernel,
                      const LaunchConfig& cfg, KernelRecord& rec) {
  const GpuSpec& spec = sys.spec;
  const std::int64_t n = kernel.num_items();
  const int wpb = std::max(1, cfg.warps_per_block);
  std::int64_t total_warps =
      cfg.grid_blocks > 0
          ? static_cast<std::int64_t>(cfg.grid_blocks) * wpb
          : static_cast<std::int64_t>(spec.num_sms) * spec.warps_per_sm;
  total_warps = std::max<std::int64_t>(1, std::min(total_warps, n));
  const std::int64_t chunk = (n + total_warps - 1) / total_warps;
  const std::int64_t blocks = (total_warps + wpb - 1) / wpb;
  rec.blocks = blocks;
  rec.warps_per_block = wpb;

  std::vector<double>& durations = scratch().durations;
  durations.clear();
  durations.reserve(static_cast<std::size_t>(blocks));
  double resident_integral = 0.0;
  WarpCtx warp(sys, 0);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const int sm = static_cast<int>(b % spec.num_sms);
    double block_serial = 0.0;
    int block_warps = 0;
    for (std::int64_t w = b * wpb;
         w < std::min<std::int64_t>(total_warps, (b + 1) * wpb); ++w) {
      warp.reassign(sm, /*warp_id=*/w);
      const std::int64_t lo = w * chunk;
      const std::int64_t hi = std::min<std::int64_t>(n, lo + chunk);
      for (std::int64_t item = lo; item < hi; ++item) {
        warp.begin_item(item);
        kernel.run_item(warp, item);
      }
      rec.issue_cycles += warp.issue_cycles();
      rec.mem_stall_cycles += warp.mem_cycles();
      rec.warps++;
      ++block_warps;
      block_serial = std::max(block_serial, warp.total_cycles());
    }
    durations.push_back(block_serial);
    resident_integral += block_serial * block_warps;
  }

  const int slots = spec.num_sms * resident_blocks_per_sm(spec, wpb);
  const double makespan = slot_makespan(durations, slots,
                                        spec.block_dispatch_cycles, nullptr);
  finalize_timing(spec, rec, makespan, resident_integral);
}

void run_software_pool(MemorySystem& sys, WarpKernel& kernel,
                       const LaunchConfig& cfg, KernelRecord& rec) {
  const GpuSpec& spec = sys.spec;
  const std::int64_t n = kernel.num_items();
  const int wpb = std::max(1, cfg.warps_per_block);
  std::int64_t total_warps =
      cfg.grid_blocks > 0
          ? static_cast<std::int64_t>(cfg.grid_blocks) * wpb
          : static_cast<std::int64_t>(spec.num_sms) * spec.warps_per_sm;
  total_warps = std::max<std::int64_t>(1, total_warps);
  rec.blocks = (total_warps + wpb - 1) / wpb;
  rec.warps_per_block = wpb;
  rec.warps = total_warps;
  // Adaptive grab size: cfg.pool_step is an upper bound, shrunk when there
  // are too few items per warp for coarse grabs to keep everyone busy (the
  // kernel reads the launch dimensions, so this costs nothing at runtime).
  const std::int64_t step = std::max<std::int64_t>(
      1, std::min<std::int64_t>(cfg.pool_step, n / (2 * total_warps)));

  // The pool counter lives in device memory like Algorithm 1's global G.
  DevPtr<std::uint32_t> pool = sys.mem.alloc<std::uint32_t>(1);
  sys.mem.view(pool)[0] = 0;

  // Min-heap over warp virtual time so pool grabs happen in simulated-time
  // order; a serialization gap models contention on the single counter.
  // Seeding with a tiny per-warp skew makes the initial grab order
  // deterministic and id-ordered; together with the round-robin warp->SM
  // striping below this spreads consecutive chunks across SMs the way a
  // real grid launch does. The heap's storage lives in scratch; pop order
  // depends only on the (time, id) ordering, which is total, so the manual
  // heap reproduces std::priority_queue exactly.
  using Entry = std::pair<double, std::int64_t>;  // (virtual time, warp id)
  std::vector<Entry>& heap = scratch().pool_heap;
  heap.clear();
  heap.reserve(static_cast<std::size_t>(total_warps));
  for (std::int64_t w = 0; w < total_warps; ++w)
    heap.emplace_back(static_cast<double>(w) * 1e-6, w);
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  double pool_available = 0.0;
  double makespan = 0.0;
  double resident_integral = 0.0;

  WarpCtx warp(sys, 0);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [t, w] = heap.back();
    heap.pop_back();
    const int sm = static_cast<int>(w % spec.num_sms);
    warp.reassign(sm, /*warp_id=*/w);
    const double grab_time = std::max(t, pool_available);
    pool_available = grab_time + spec.pool_grab_gap_cycles;
    warp.site(TLP_SITE_SUPPRESS(
        "pool_grab", "TLP-ATOM-004",
        "Algorithm 1's software work pool serializes on one global counter "
        "by design; the paper accepts this cost for dynamic balance"));
    const std::uint32_t sindex = warp.atomic_add_u32(
        pool, 0, static_cast<std::uint32_t>(step));
    warp.site(nullptr);
    double t_new = grab_time + warp.total_cycles();
    warp.reset_costs();
    if (sindex >= n) {
      // Pool drained: warp exits. Its residency ends here.
      rec.issue_cycles += 1;
      makespan = std::max(makespan, t_new);
      resident_integral += t_new;
      continue;
    }
    const std::int64_t lo = sindex;
    const std::int64_t hi = std::min<std::int64_t>(n, lo + step);
    for (std::int64_t item = lo; item < hi; ++item) {
      warp.begin_item(item);
      kernel.run_item(warp, item);
    }
    rec.issue_cycles += warp.issue_cycles();
    rec.mem_stall_cycles += warp.mem_cycles();
    t_new += warp.total_cycles();
    heap.emplace_back(t_new, w);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }

  sys.mem.free(pool);
  // All resources are allocated once: one dispatch per block, all up front.
  const double dispatch =
      static_cast<double>(rec.blocks) * spec.block_dispatch_cycles /
      std::max(1, spec.num_sms);
  finalize_timing(spec, rec, makespan + dispatch, resident_integral);
}

}  // namespace

namespace {

/// Restores the current-kernel pointers even when a kernel throws (guarded
/// memory raises InvalidAccess/WriteRace mid-execution; the device must stay
/// usable for the caller's error handling).
struct KernelScope {
  KernelScope(MemorySystem& mem_sys, KernelRecord& rec)
      : sys(mem_sys), prev(mem_sys.rec) {
    sys.rec = &rec;
    sys.mem.begin_kernel(rec.name);
    if (sys.trace != nullptr) sys.trace->begin_kernel(rec.name);
  }
  ~KernelScope() {
    sys.mem.end_kernel();
    sys.rec = prev;
  }
  MemorySystem& sys;
  KernelRecord* prev;
};

}  // namespace

void run_kernel(MemorySystem& sys, WarpKernel& kernel, const LaunchConfig& cfg,
                KernelRecord& rec) {
  TLP_CHECK_MSG(cfg.warps_per_block * sys.spec.warp_size <=
                    sys.spec.max_threads_per_block,
                "block too large: " << cfg.warps_per_block << " warps");
  rec.name = kernel.name();
  KernelScope scope(sys, rec);
  if (kernel.num_items() == 0) {
    rec.launch_overhead_us += sys.spec.kernel_launch_us;
  } else {
    switch (cfg.assignment) {
      case Assignment::kHardwareDynamic:
        run_hardware_dynamic(sys, kernel, cfg, rec);
        break;
      case Assignment::kStaticChunk:
        run_static_chunk(sys, kernel, cfg, rec);
        break;
      case Assignment::kSoftwarePool:
        run_software_pool(sys, kernel, cfg, rec);
        break;
    }
  }
}

}  // namespace tlp::sim
