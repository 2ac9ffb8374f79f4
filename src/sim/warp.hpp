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

  // --- run vector operations -----------------------------------------------
  // The sub-warp shape: the warp splits into groups of `stride` lanes, and
  // group r's first n lanes touch n consecutive elements from start[r] — one
  // feature-row chunk per vertex when each vertex gets `stride` lanes
  // (SubwarpPullKernel). Each run is one range-checked block copy priced
  // from its closed-form span; the runs' lines merge in first-occurrence
  // order. Counters, costs, cache state, trace and data effects are
  // byte-identical to the lane walk over the same lanes and indices.
  /// Lane r*stride+k (k < n) of each run r (bit r of `runs`) reads
  /// base[start[r]+k]. `stride` is a power of two in [1, 32], n <= stride,
  /// and `runs` names runs below 32/stride, or CheckError is thrown; n <= 0
  /// or no run is a no-op.
  WVec<float> load_f32_runs(DevPtr<float> base,
                            const WVec<std::int64_t>& start, Mask runs,
                            int stride, int n);
  /// Lane r*stride+k (k < n) of each run r writes its val[] entry to
  /// base[start[r]+k]; runs apply in ascending order.
  void store_f32_runs(DevPtr<float> base, const WVec<std::int64_t>& start,
                      const WVec<float>& val, Mask runs, int stride, int n);

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
  using LaneAddrs = std::array<std::uint64_t, kWarpSize>;

  /// A 128 B line a request touches, with the mask of its 32 B sectors.
  struct SectorLine {
    std::uint64_t line;
    std::uint32_t sectors;
  };

  // Every warp request is priced by charge(). The four front ends below,
  // the lane walk, the `*_seq` span, the run merge and the scalar line,
  // only move the data, record the trace and build the request's line set,
  // in the first-occurrence order of its lanes (the caches are probed in
  // that order, which is observable through LRU state). Each one's result
  // is pinned to the lane walk's by FrontEndEquivalence in test_warp.

  /// The pricing core: counts the request, its issue slot and its ordinal,
  /// probes `lines` in order (L1, then L2 on an L1 miss; atomics resolve at
  /// the L2 atomic units only), charges the worst probe latency, and
  /// records sector and byte traffic. Always inlined, so each call site
  /// gets a copy specialised to its line count and, where known, its op;
  /// one shared out-of-line copy made the scalar path measurably slower.
  [[gnu::always_inline]] inline void charge(const SectorLine* lines, int n,
                                            Op op);

  /// The one lane walk behind every vector gather, scatter and atomic: for
  /// each active lane it derives the address, applies `move(lane, addr)`,
  /// reports stores to the race detector, and fuses the "all lanes in one
  /// line?" scan. Scattered lanes are grouped by line; atomics are also
  /// grouped by address, and the worst address's extra lanes are charged
  /// as replays. Full-mask requests take a counted loop (it unrolls better
  /// than the mask walk); both visit lanes in ascending order.
  template <Op op, class T, class Move>
  void walk(DevPtr<T> base, const WVec<std::int64_t>& idx, Mask m, Move move);
  template <class T>
  WVec<T> gather(DevPtr<T> base, const WVec<std::int64_t>& idx, Mask m);
  template <class T>
  WVec<T> gather_seq(DevPtr<T> base, std::int64_t start, int n);

  /// The line set of n contiguous 4-byte lanes from `a0`: the range covers
  /// every sector between its ends, so it is one line or two adjacent ones,
  /// in ascending address order (the lane walk's first-occurrence order).
  /// Writes them to `out` and returns how many.
  [[gnu::always_inline]] static inline int span_lines(std::uint64_t a0, int n,
                                                      SectorLine* out);

  /// `*_seq` pricing for n contiguous 4-byte lanes from `a0`: the one-run
  /// case, kept apart from price_runs because pricing `*_seq` through it
  /// measured slower (conv-large). Out of line: inlined into the `*_seq`
  /// entry points it measured slower (BM_SeqLoad).
  void span(std::uint64_t a0, int n, Op op);

  /// Run pricing: appends each run's closed-form span to one line set,
  /// OR-ing the sectors of a line already in it, and charges the set. Runs
  /// come in ascending lane order, so the set keeps first-occurrence order.
  void price_runs(DevPtr<float> base, const WVec<std::int64_t>& start,
                  Mask runs, int n, Op op);

  /// Scalar pricing: lane 0 alone touches one sector of one line. The trace
  /// record is flagged `scalar` so the divergence pass does not mistake the
  /// broadcast for masked-out lanes. Inlined, so each op is a constant.
  [[gnu::always_inline]] inline void scalar(std::uint64_t a,
                                            int bytes_per_lane, Op op);

  /// Cold path: builds and records the TraceAccess for an attached tlpsan
  /// trace. Kept out of line so the (trace == nullptr) common case pays only
  /// a predicted-not-taken branch in the request hot path.
  [[gnu::noinline]] void record_trace(const LaneAddrs& addr, Mask m,
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
