// Warp-granularity execution context — the "CUDA" surface kernels are
// written against.
//
// Kernels run warp-synchronously: a WVec<T> holds one value per lane, a Mask
// selects the active lanes, and every global-memory access goes through this
// context, which (a) actually moves the data in the DeviceMemory arena and
// (b) feeds the coalescing/cache/latency model (sector counting over the 32
// lane addresses, L1/L2 tag probes, atomic-conflict serialization).
#pragma once

#include <array>
#include <cstdint>

#include "sim/cache.hpp"
#include "sim/counters.hpp"
#include "sim/device_memory.hpp"
#include "sim/gpu_spec.hpp"
#include "sim/trace.hpp"

namespace tlp::sim {

inline constexpr int kWarpSize = 32;

template <class T>
using WVec = std::array<T, kWarpSize>;

using Mask = std::uint32_t;
inline constexpr Mask kFullMask = 0xffffffffu;

/// Mask with the low `n` lanes active.
[[nodiscard]] constexpr Mask lanes_below(int n) {
  return n >= kWarpSize ? kFullMask : ((Mask{1} << n) - 1);
}
[[nodiscard]] constexpr bool lane_active(Mask m, int lane) {
  return (m >> lane) & 1u;
}

/// Everything a warp touches while executing: the arena, the cache
/// hierarchy, and the counters of the currently running kernel.
struct MemorySystem {
  GpuSpec spec;
  DeviceMemory mem;
  std::vector<SetAssocCache> l1;  ///< one per SM
  SetAssocCache l2;
  KernelRecord* rec = nullptr;  ///< current kernel's counters
  /// Opt-in access recorder for the tlpsan analysis passes; null = off.
  AccessTrace* trace = nullptr;

  explicit MemorySystem(const GpuSpec& s);
  void reset_caches();
};

class WarpCtx {
 public:
  /// `warp_id` is a launch-unique id used by the guarded-memory write-race
  /// detector to distinguish stores from different warps; -1 (host / test
  /// contexts) still participates in race tracking as its own writer.
  WarpCtx(MemorySystem& sys, int sm_id, std::int64_t warp_id = -1)
      : sys_(&sys), sm_(sm_id), warp_id_(warp_id) {}

  /// Rebinds this context to a new (sm, warp) identity with all per-warp
  /// state (costs, site, item, request ordinal) reset — equivalent to
  /// constructing a fresh WarpCtx, but lets the scheduler loops reuse one
  /// object instead of re-creating it per warp (DESIGN.md §10).
  void reassign(int sm_id, std::int64_t warp_id) {
    sm_ = sm_id;
    warp_id_ = warp_id;
    issue_ = mem_ = 0;
    site_ = nullptr;
    item_ = -1;
    slot_ = 0;
  }

  // --- per-warp cost accumulators (read by the scheduler) ------------------
  [[nodiscard]] double issue_cycles() const { return issue_; }
  [[nodiscard]] double mem_cycles() const { return mem_; }
  [[nodiscard]] double total_cycles() const { return issue_ + mem_; }
  void reset_costs() { issue_ = mem_ = 0; }

  /// Charge `n` warp-instructions of pure ALU work.
  void charge_alu(int n = 1) { issue_ += n; }

  // --- vector (per-lane) global memory operations --------------------------
  /// Gather: lane l reads base[idx[l]] when active. One memory request.
  WVec<float> load_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                       Mask m);
  WVec<std::int32_t> load_i32(DevPtr<std::int32_t> base,
                              const WVec<std::int64_t>& idx, Mask m);
  WVec<std::int64_t> load_i64(DevPtr<std::int64_t> base,
                              const WVec<std::int64_t>& idx, Mask m);
  /// Scatter: lane l writes val[l] to base[idx[l]] when active.
  void store_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                 const WVec<float>& val, Mask m);

  // --- sequential-range vector operations ----------------------------------
  // The dominant access shape in every TLPGNN kernel is "lane l touches
  // element start+l for l in [0, n)" — a feature-row chunk or an edge-id
  // batch. These entry points express that shape directly, so the simulator
  // can replace the 32-iteration per-lane loop (index build, address math,
  // per-element bounds check, scattered read) with one range-checked block
  // copy and closed-form line/sector accounting. Counters, costs, cache
  // state, and data effects are byte-identical to calling the general
  // gather/scatter with idx[l] = start+l and mask lanes_below(n).
  /// Lane l (l < n) reads base[start+l]; equivalent to load_f32 with a
  /// lanes_below(n) mask. n is clamped to the warp size; n <= 0 is a no-op.
  WVec<float> load_f32_seq(DevPtr<float> base, std::int64_t start, int n);
  WVec<std::int32_t> load_i32_seq(DevPtr<std::int32_t> base,
                                  std::int64_t start, int n);
  /// Lane l (l < n) writes val[l] to base[start+l].
  void store_f32_seq(DevPtr<float> base, std::int64_t start,
                     const WVec<float>& val, int n);
  /// Lane l (l < n) atomically adds val[l] to base[start+l]. The addresses
  /// are distinct by construction, so no conflict replay is ever charged.
  void atomic_add_f32_seq(DevPtr<float> base, std::int64_t start,
                          const WVec<float>& val, int n);
  /// Atomic scatter-add with conflict serialization across lanes.
  void atomic_add_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                      const WVec<float>& val, Mask m);
  /// Atomic scatter-max (same cost model as atomic_add_f32).
  void atomic_max_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                      const WVec<float>& val, Mask m);

  // --- scalar (uniform) operations -----------------------------------------
  /// A single lane loads and broadcasts (e.g. indptr bounds, neighbor ids).
  float load_scalar_f32(DevPtr<float> base, std::int64_t idx);
  std::int32_t load_scalar_i32(DevPtr<std::int32_t> base, std::int64_t idx);
  std::int64_t load_scalar_i64(DevPtr<std::int64_t> base, std::int64_t idx);
  void store_scalar_f32(DevPtr<float> base, std::int64_t idx, float v);
  /// Warp-wide fetch-add on a global counter (software work pool). Returns
  /// the previous value.
  std::uint32_t atomic_add_u32(DevPtr<std::uint32_t> base, std::int64_t idx,
                               std::uint32_t add);
  float atomic_add_scalar_f32(DevPtr<float> base, std::int64_t idx, float v);

  // --- host-side performance hints (no simulation effect) ------------------
  /// Cache-warming hint for the simulator's own backing memory: prefetches
  /// the host cache lines holding base[idx .. idx+count) and touches nothing
  /// in the model — no counters, no tag probes, no latency, no trace. The
  /// edge loops use it to overlap the host-DRAM latency of the next edge's
  /// scattered feature row with the current edge's model work; the simulated
  /// metrics are byte-identical with or without the hint.
  template <class T>
  void prefetch(DevPtr<T> base, std::int64_t idx, std::int64_t count = 1) {
    if (idx >= 0 && count > 0)
      sys_->mem.host_prefetch(base.addr(idx),
                              static_cast<std::size_t>(count) * sizeof(T));
  }
  /// Host-side read used only to compute prefetch addresses (e.g. the next
  /// edge's neighbor id). Bounds-checked like any arena read but invisible
  /// to the model: no request, no counters, no trace.
  template <class T>
  [[nodiscard]] T peek(DevPtr<T> base, std::int64_t idx) const {
    return sys_->mem.read<T>(base.addr(idx));
  }

  // --- warp collectives -----------------------------------------------------
  /// Butterfly-shuffle reduction (5 shuffle instructions), sum over active
  /// lanes, result broadcast to all lanes.
  float reduce_sum(const WVec<float>& v, Mask m);
  float reduce_max(const WVec<float>& v, Mask m);

  [[nodiscard]] int sm() const { return sm_; }
  [[nodiscard]] std::int64_t warp_id() const { return warp_id_; }

  /// Declares the static access site the following memory operations belong
  /// to (tlpsan annotation; see sim/trace.hpp). Sticky until changed.
  void site(const AccessSite* s) { site_ = s; }
  [[nodiscard]] const AccessSite* site() const { return site_; }

  /// Called by the scheduler before each run_item: tags traced accesses with
  /// the work item, the register-lifetime scope the redundant-load pass uses.
  void begin_item(std::int64_t item) { item_ = item; }

 private:
  enum class Op { kLoad, kStore, kAtomic };

  /// SIMD-style batched core of the vector gather: one lane loop moves the
  /// data, computes the 32 addresses, and fuses the single-line coalescing
  /// scan; `*_seq` and the typed public entry points are instances of this
  /// form. Full-mask requests take a counted loop (unrolls and pipelines
  /// better than the serial mask walk) — the visit order is lane-ascending
  /// either way, so counters and cache state are identical.
  template <class T>
  WVec<T> load_vec(DevPtr<T> base, const WVec<std::int64_t>& idx, Mask m);
  /// Batched scatter core, same shape as load_vec.
  template <class T>
  void store_vec(DevPtr<T> base, const WVec<std::int64_t>& idx,
                 const WVec<T>& val, Mask m);
  /// Batched sequential-range gather: the `*_seq` fast paths are this one
  /// template (4-byte elements; block copy + closed-form span accounting).
  template <class T>
  WVec<T> load_seq_vec(DevPtr<T> base, std::int64_t start, int n);

  /// Core of the memory model: dedupes lane addresses into 32 B sectors and
  /// 128 B lines, probes the caches, charges latency, and records traffic.
  /// `scalar` marks single-lane broadcast accesses so the divergence pass
  /// does not mistake them for masked-out lanes.
  void request(const std::array<std::uint64_t, kWarpSize>& addr, Mask m,
               int bytes_per_lane, Op op, bool scalar = false);

  /// Accounting for a request whose active lanes all fall in one 128 B line
  /// (`smask` = the 4-bit 32 B-sector mask within it): one probe, no dedup.
  /// Shared by the fused lane-loop scans in the vector load/store entry
  /// points and by request()'s own single-line detection, so both paths
  /// produce byte-identical counters and costs.
  void request_one_line(std::uint64_t line0, std::uint32_t smask, Op op);

  /// A deduplicated 128 B line with the mask of its touched 32 B sectors.
  struct SectorLine {
    std::uint64_t line;
    std::uint32_t sectors;
  };

  /// Probes and accounts `nlines` deduplicated lines in order — the shared
  /// core of the general gather/scatter path and the two-line sequential
  /// case. Includes the per-request counters (requests, issue).
  void request_lines(const SectorLine* lines, int nlines, Op op);

  /// General multi-line path: dedupes lane addresses into lines with
  /// per-line sector masks (first-occurrence order) and probes each.
  /// Trace/slot bookkeeping is the caller's job.
  void request_general(const std::array<std::uint64_t, kWarpSize>& addr,
                       Mask m, Op op);

  /// Accounting for a contiguous element range [first_addr, last_addr]
  /// (addresses of the first and last element): the range covers every
  /// sector in between, so the line set and per-line sector masks follow
  /// arithmetically — one line, or two adjacent ones. Trace/slot
  /// bookkeeping is the caller's job.
  void request_span(std::uint64_t first_addr, std::uint64_t last_addr, Op op);

  /// Fast path for single-lane broadcast accesses (indptr bounds, neighbor
  /// ids, pool counters): one line, one sector, no dedup pass and no 32-lane
  /// address array. Produces exactly the counters/costs request() would for
  /// mask 0x1, including the identical TraceAccess when a trace is attached.
  void request_scalar(std::uint64_t addr, int bytes_per_lane, Op op);

  /// Cold path: builds and records the TraceAccess for an attached tlpsan
  /// trace. Kept out of line so the (trace == nullptr) common case pays only
  /// a predicted-not-taken branch in the request hot path.
  [[gnu::noinline]] void record_trace(
      const std::array<std::uint64_t, kWarpSize>& addr, Mask m,
      int bytes_per_lane, Op op, bool scalar);

  /// Guarded-memory hook: reports one store lane to the write-race detector.
  void note_store(std::uint64_t addr, int bytes, bool atomic) {
    if (sys_->mem.mode() == MemoryMode::kGuarded)
      sys_->mem.note_store(addr, bytes, warp_id_, atomic);
  }

  MemorySystem* sys_;
  int sm_;
  std::int64_t warp_id_ = -1;
  double issue_ = 0;
  double mem_ = 0;
  const AccessSite* site_ = nullptr;
  std::int64_t item_ = -1;
  std::uint32_t slot_ = 0;  ///< request ordinal within this context
};

}  // namespace tlp::sim
