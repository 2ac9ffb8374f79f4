#include "sim/warp.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"

namespace tlp::sim {

MemorySystem::MemorySystem(const GpuSpec& s)
    : spec(s), l2(s.l2_bytes, s.line_bytes, s.l2_ways) {
  l1.reserve(static_cast<std::size_t>(s.num_sms));
  for (int i = 0; i < s.num_sms; ++i)
    l1.emplace_back(s.l1_bytes, s.line_bytes, s.l1_ways);
}

void MemorySystem::reset_caches() {
  for (auto& c : l1) c.reset();
  l2.reset();
}

namespace {

/// Fibonacci hash into the 64-slot dedup table. A warp touches at most 32
/// distinct lines per request, so the table is never more than half full and
/// linear probing always terminates.
inline std::uint32_t hash64(std::uint64_t key) {
  return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 58);
}

}  // namespace

void WarpCtx::record_trace(const std::array<std::uint64_t, kWarpSize>& addr,
                           Mask m, int bytes_per_lane, Op op, bool scalar) {
  TraceAccess ta;
  ta.warp = warp_id_;
  ta.item = item_;
  ta.site = site_ != nullptr ? site_->id : 0;
  ta.slot = slot_;
  ta.kind = op == Op::kLoad    ? AccessKind::kLoad
            : op == Op::kStore ? AccessKind::kStore
                               : AccessKind::kAtomic;
  ta.bytes = static_cast<std::uint8_t>(bytes_per_lane);
  ta.scalar = scalar;
  ta.mask = m;
  ta.addr = addr;
  sys_->trace->record(ta);
}

void WarpCtx::request_one_line(std::uint64_t line0, std::uint32_t smask,
                               Op op) {
  auto& sys = *sys_;
  KernelRecord& rec = *sys.rec;
  const GpuSpec& spec = sys.spec;
  rec.requests += 1;
  issue_ += 1;
  const int nsec = std::popcount(smask);
  rec.sectors += nsec;
  const std::int64_t bytes = nsec * static_cast<std::int64_t>(spec.sector_bytes);
  const std::uint64_t probe_addr = line0 << 7;
  bool l2_hit = false;
  if (op == Op::kAtomic) {
    rec.l2_accesses++;
    l2_hit = sys.l2.access(probe_addr);
    if (l2_hit) rec.l2_hits++;
    rec.bytes_atomic += bytes;
    if (!l2_hit) rec.bytes_dram += bytes;
    mem_ += spec.atomic_latency;
    return;
  }
  rec.l1_accesses++;
  const bool l1_hit = sys.l1[static_cast<std::size_t>(sm_)].access(probe_addr);
  if (l1_hit) {
    rec.l1_hits++;
  } else {
    rec.l2_accesses++;
    l2_hit = sys.l2.access(probe_addr);
    if (l2_hit) rec.l2_hits++;
  }
  if (op == Op::kLoad) {
    if (!l1_hit) rec.bytes_load += bytes;
    const double lat = l1_hit ? spec.l1_latency
                              : (l2_hit ? spec.l2_latency : spec.dram_latency);
    mem_ += lat / spec.load_pipeline_depth;
  } else {
    rec.bytes_store += bytes;
  }
  if (!l1_hit && !l2_hit) rec.bytes_dram += bytes;
}

void WarpCtx::request(const std::array<std::uint64_t, kWarpSize>& addr, Mask m,
                      int bytes_per_lane, Op op, bool scalar) {
  if (m == 0) return;
  if (sys_->trace != nullptr) [[unlikely]]
    record_trace(addr, m, bytes_per_lane, op, scalar);
  ++slot_;
  (void)bytes_per_lane;

  // Single-line fast path: in the TLPGNN kernels the most common vector
  // access by far is a warp reading or writing one contiguous 128 B feature
  // row (unit stride), so every active lane falls in the same line. Detect
  // that with a branchless full-warp scan (no serial mask walk, no dedup
  // table) and run the one-line accounting directly; scattered requests fall
  // through to the general dedup. Inactive `addr` entries are
  // zero-initialized by the callers, so scanning all 32 lanes is safe.
  // (The load/store entry points fuse this same scan into their lane loops
  // and skip request() entirely; this path serves the atomics.)
  const std::uint64_t line0 =
      addr[static_cast<std::size_t>(std::countr_zero(m))] >> 7;
  std::uint64_t off_line = 0;  // nonzero if any active lane leaves line0
  std::uint32_t smask = 0;
  for (int l = 0; l < kWarpSize; ++l) {
    const std::uint64_t a = addr[static_cast<std::size_t>(l)];
    const std::uint64_t act = (m >> l) & 1u;
    off_line |= ((a >> 7) ^ line0) & (0 - act);
    smask |= static_cast<std::uint32_t>(act) << ((a >> 5) & 3u);
  }
  if (off_line == 0) {
    request_one_line(line0, smask, op);
    return;
  }
  request_general(addr, m, op);
}

void WarpCtx::request_general(const std::array<std::uint64_t, kWarpSize>& addr,
                              Mask m, Op op) {
  // Dedupe lane addresses into 128 B lines with per-line 32 B sector masks,
  // preserving first-occurrence order (the caches are probed in this order,
  // so it is part of the observable LRU behavior). Consecutive lanes usually
  // share the previous entry — check it first; everything else goes through
  // a 64-slot open-addressing table instead of a linear rescan.
  std::array<SectorLine, kWarpSize> lines;
  std::array<std::uint8_t, 64> slot_of{};  // index into `lines`
  std::uint64_t used = 0;                  // occupied `slot_of` entries
  int nlines = 0;
  for (Mask rem = m; rem != 0; rem &= rem - 1) {
    const int l = std::countr_zero(rem);
    const std::uint64_t a = addr[static_cast<std::size_t>(l)];
    const std::uint64_t line = a >> 7;
    const auto sector_bit = std::uint32_t{1}
                            << ((a >> 5) & 3u);  // sector within line
    if (nlines > 0 && lines[static_cast<std::size_t>(nlines - 1)].line == line) {
      lines[static_cast<std::size_t>(nlines - 1)].sectors |= sector_bit;
      continue;
    }
    std::uint32_t h = hash64(line);
    int found = -1;
    while ((used >> h) & 1u) {
      const auto i = slot_of[h];
      if (lines[i].line == line) {
        found = i;
        break;
      }
      h = (h + 1) & 63u;
    }
    if (found < 0) {
      used |= std::uint64_t{1} << h;
      slot_of[h] = static_cast<std::uint8_t>(nlines);
      lines[static_cast<std::size_t>(nlines++)] = {line, sector_bit};
    } else {
      lines[static_cast<std::size_t>(found)].sectors |= sector_bit;
    }
  }

  // The second+ lane of a multi-byte element touches the same sector; with
  // bytes_per_lane == 8 the mask above is still right because elements are
  // 8-byte aligned.
  request_lines(lines.data(), nlines, op);
}

void WarpCtx::request_lines(const SectorLine* lines, int nlines, Op op) {
  auto& sys = *sys_;
  KernelRecord& rec = *sys.rec;
  const GpuSpec& spec = sys.spec;
  rec.requests += 1;
  issue_ += 1;  // the ld/st instruction itself

  double worst_latency = 0;
  std::int64_t miss_l1_sectors = 0;
  std::int64_t miss_l2_sectors = 0;
  std::int64_t total_sectors = 0;
  if (op == Op::kAtomic) {
    // Global atomics resolve at the L2 atomic units and bypass L1.
    for (int i = 0; i < nlines; ++i) {
      const auto& e = lines[static_cast<std::size_t>(i)];
      const int nsec = std::popcount(e.sectors);
      total_sectors += nsec;
      rec.l2_accesses++;
      const bool l2_hit = sys.l2.access(e.line << 7);
      if (l2_hit) rec.l2_hits++;
      miss_l1_sectors += nsec;
      if (!l2_hit) miss_l2_sectors += nsec;
    }
    worst_latency = spec.atomic_latency;
  } else {
    SetAssocCache& l1 = sys.l1[static_cast<std::size_t>(sm_)];
    for (int i = 0; i < nlines; ++i) {
      const auto& e = lines[static_cast<std::size_t>(i)];
      const int nsec = std::popcount(e.sectors);
      total_sectors += nsec;
      rec.l1_accesses++;
      const bool l1_hit = l1.access(e.line << 7);
      bool l2_hit = false;
      if (l1_hit) {
        rec.l1_hits++;
      } else {
        rec.l2_accesses++;
        l2_hit = sys.l2.access(e.line << 7);
        if (l2_hit) rec.l2_hits++;
      }
      if (!l1_hit) miss_l1_sectors += nsec;
      if (!l1_hit && !l2_hit) miss_l2_sectors += nsec;
      if (op == Op::kLoad) {
        const double lat =
            l1_hit ? spec.l1_latency
                   : (l2_hit ? spec.l2_latency : spec.dram_latency);
        worst_latency = std::max(worst_latency, lat);
      }
    }
  }

  rec.sectors += total_sectors;
  const std::int64_t sector_bytes =
      static_cast<std::int64_t>(spec.sector_bytes);
  switch (op) {
    case Op::kLoad:
      rec.bytes_load += miss_l1_sectors * sector_bytes;
      // Loads pipeline a few deep before the scoreboard stalls the warp.
      mem_ += worst_latency / spec.load_pipeline_depth;
      break;
    case Op::kStore:
      // Write-through L1: every store sector crosses the L1<->L2 bus.
      rec.bytes_store += total_sectors * sector_bytes;
      // Stores retire without stalling the warp.
      break;
    case Op::kAtomic:
      rec.bytes_atomic += total_sectors * sector_bytes;
      mem_ += worst_latency;  // atomics serialize; no pipelining
      break;
  }
  rec.bytes_dram += miss_l2_sectors * sector_bytes;
}

void WarpCtx::request_span(std::uint64_t first_addr, std::uint64_t last_addr,
                           Op op) {
  // A contiguous element range touches every sector between its endpoints,
  // so the per-line sector masks are closed-form: bits sector(first)..3 of
  // the first line, 0..sector(last) of the last. At most 32 4-byte elements
  // the range spans at most two 128 B lines; the two-line split matches the
  // first-occurrence probe order of the general dedup (ascending address).
  const std::uint64_t line0 = first_addr >> 7;
  const std::uint64_t line1 = last_addr >> 7;
  const auto s0 = static_cast<std::uint32_t>((first_addr >> 5) & 3u);
  const auto s1 = static_cast<std::uint32_t>((last_addr >> 5) & 3u);
  if (line0 == line1) {
    request_one_line(line0, (2u << s1) - (1u << s0), op);
    return;
  }
  const SectorLine lines[2] = {{line0, 0xFu - ((1u << s0) - 1u)},
                               {line1, (2u << s1) - 1u}};
  request_lines(lines, 2, op);
}

void WarpCtx::request_scalar(std::uint64_t a, int bytes_per_lane, Op op) {
  auto& sys = *sys_;
  KernelRecord& rec = *sys.rec;
  const GpuSpec& spec = sys.spec;

  if (sys.trace != nullptr) [[unlikely]] {
    std::array<std::uint64_t, kWarpSize> addr{};
    addr[0] = a;
    record_trace(addr, 0x1u, bytes_per_lane, op, /*scalar=*/true);
  }
  ++slot_;

  // One active lane: exactly one 128 B line with one 32 B sector.
  rec.requests += 1;
  issue_ += 1;

  const std::uint64_t probe_addr = (a >> 7) << 7;
  const std::int64_t sector_bytes =
      static_cast<std::int64_t>(spec.sector_bytes);
  rec.sectors += 1;

  bool l2_hit = false;
  if (op == Op::kAtomic) {
    rec.l2_accesses++;
    l2_hit = sys.l2.access(probe_addr);
    if (l2_hit) rec.l2_hits++;
    rec.bytes_atomic += sector_bytes;
    if (!l2_hit) rec.bytes_dram += sector_bytes;
    mem_ += spec.atomic_latency;
    return;
  }
  rec.l1_accesses++;
  const bool l1_hit = sys.l1[static_cast<std::size_t>(sm_)].access(probe_addr);
  if (l1_hit) {
    rec.l1_hits++;
  } else {
    rec.l2_accesses++;
    l2_hit = sys.l2.access(probe_addr);
    if (l2_hit) rec.l2_hits++;
  }
  if (op == Op::kLoad) {
    if (!l1_hit) rec.bytes_load += sector_bytes;
    const double lat = l1_hit ? spec.l1_latency
                              : (l2_hit ? spec.l2_latency : spec.dram_latency);
    mem_ += lat / spec.load_pipeline_depth;
  } else {
    rec.bytes_store += sector_bytes;
  }
  if (!l1_hit && !l2_hit) rec.bytes_dram += sector_bytes;
}

// The vector load/store entry points fuse the single-line scan into the
// per-lane data-movement loop (line0/off_line/smask stay in registers — no
// re-read of the 256 B address array) and call the one-line accounting
// directly when every active lane lands in one line; only genuinely
// scattered requests build the address array's dedup structures. The L1 tag
// set for line0 is host-prefetched as soon as the first address is known so
// the probe's memory access overlaps the rest of the lane loop. Counter and
// cost effects are byte-identical to routing through request().

template <class T>
WVec<T> WarpCtx::load_vec(DevPtr<T> base, const WVec<std::int64_t>& idx,
                          Mask m) {
  WVec<T> out{};
  if (m == 0) return out;
  std::array<std::uint64_t, kWarpSize> addr{};
  const auto& mem = sys_->mem;
  std::uint64_t line0 = 0;
  std::uint64_t off_line = 0;  // nonzero if any active lane leaves line0
  std::uint32_t smask = 0;
  if (m == kFullMask) {
    // Full warp: a plain counted loop unrolls and pipelines better than the
    // mask walk (no serial dependency on the remaining-lanes word). The
    // visit order is lane-ascending either way, so counters, cache state,
    // and data effects are identical.
    line0 = base.addr(idx[0]) >> 7;
    sys_->l1[static_cast<std::size_t>(sm_)].prefetch_set(line0 << 7);
    for (std::size_t l = 0; l < kWarpSize; ++l) {
      const std::uint64_t a = base.addr(idx[l]);
      addr[l] = a;
      out[l] = mem.read<T>(a);
      off_line |= (a >> 7) ^ line0;
      smask |= 1u << ((a >> 5) & 3u);
    }
  } else {
    line0 = base.addr(idx[static_cast<std::size_t>(std::countr_zero(m))]) >> 7;
    sys_->l1[static_cast<std::size_t>(sm_)].prefetch_set(line0 << 7);
    for (Mask rem = m; rem != 0; rem &= rem - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(rem));
      const std::uint64_t a = base.addr(idx[l]);
      addr[l] = a;
      out[l] = mem.read<T>(a);
      off_line |= (a >> 7) ^ line0;
      smask |= 1u << ((a >> 5) & 3u);
    }
  }
  if (sys_->trace != nullptr) [[unlikely]]
    record_trace(addr, m, static_cast<int>(sizeof(T)), Op::kLoad, false);
  ++slot_;
  if (off_line == 0)
    request_one_line(line0, smask, Op::kLoad);
  else
    request_general(addr, m, Op::kLoad);
  return out;
}

template <class T>
void WarpCtx::store_vec(DevPtr<T> base, const WVec<std::int64_t>& idx,
                        const WVec<T>& val, Mask m) {
  if (m == 0) return;
  std::array<std::uint64_t, kWarpSize> addr{};
  std::uint64_t line0 = 0;
  std::uint64_t off_line = 0;
  std::uint32_t smask = 0;
  if (m == kFullMask) {
    line0 = base.addr(idx[0]) >> 7;
    sys_->l1[static_cast<std::size_t>(sm_)].prefetch_set(line0 << 7);
    for (std::size_t l = 0; l < kWarpSize; ++l) {
      const std::uint64_t a = base.addr(idx[l]);
      addr[l] = a;
      sys_->mem.write<T>(a, val[l]);
      note_store(a, static_cast<int>(sizeof(T)), /*atomic=*/false);
      off_line |= (a >> 7) ^ line0;
      smask |= 1u << ((a >> 5) & 3u);
    }
  } else {
    line0 = base.addr(idx[static_cast<std::size_t>(std::countr_zero(m))]) >> 7;
    sys_->l1[static_cast<std::size_t>(sm_)].prefetch_set(line0 << 7);
    for (Mask rem = m; rem != 0; rem &= rem - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(rem));
      const std::uint64_t a = base.addr(idx[l]);
      addr[l] = a;
      sys_->mem.write<T>(a, val[l]);
      note_store(a, static_cast<int>(sizeof(T)), /*atomic=*/false);
      off_line |= (a >> 7) ^ line0;
      smask |= 1u << ((a >> 5) & 3u);
    }
  }
  if (sys_->trace != nullptr) [[unlikely]]
    record_trace(addr, m, static_cast<int>(sizeof(T)), Op::kStore, false);
  ++slot_;
  if (off_line == 0)
    request_one_line(line0, smask, Op::kStore);
  else
    request_general(addr, m, Op::kStore);
}

WVec<float> WarpCtx::load_f32(DevPtr<float> base,
                              const WVec<std::int64_t>& idx, Mask m) {
  return load_vec<float>(base, idx, m);
}

WVec<std::int32_t> WarpCtx::load_i32(DevPtr<std::int32_t> base,
                                     const WVec<std::int64_t>& idx, Mask m) {
  return load_vec<std::int32_t>(base, idx, m);
}

WVec<std::int64_t> WarpCtx::load_i64(DevPtr<std::int64_t> base,
                                     const WVec<std::int64_t>& idx, Mask m) {
  return load_vec<std::int64_t>(base, idx, m);
}

void WarpCtx::store_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                        const WVec<float>& val, Mask m) {
  store_vec<float>(base, idx, val, m);
}

namespace {

/// Lane indices start..start+n-1 — the fallback from a sequential entry
/// point to the general gather/scatter (guarded memory mode).
inline WVec<std::int64_t> seq_idx(std::int64_t start, int n) {
  WVec<std::int64_t> idx{};
  for (int l = 0; l < n; ++l) idx[static_cast<std::size_t>(l)] = start + l;
  return idx;
}

/// Lane addresses of n consecutive 4-byte elements, for trace recording.
inline std::array<std::uint64_t, kWarpSize> seq_addrs(std::uint64_t a0,
                                                      int n) {
  std::array<std::uint64_t, kWarpSize> addr{};
  for (int l = 0; l < n; ++l)
    addr[static_cast<std::size_t>(l)] = a0 + 4u * static_cast<std::uint32_t>(l);
  return addr;
}

}  // namespace

// The _seq entry points express the dominant "lane l touches element
// start+l" shape directly: one range bounds check and one block copy
// replace the 32-iteration per-lane loop, and the line/sector accounting is
// closed-form (request_span). Guarded memory mode falls back to the general
// gather/scatter so redzone/use-after-free/write-race checking still sees
// every lane; with a trace attached the per-lane address array is built on
// demand. All observable effects (data, counters, cache state, costs,
// trace) are identical to the general path with idx[l] = start+l.

template <class T>
WVec<T> WarpCtx::load_seq_vec(DevPtr<T> base, std::int64_t start, int n) {
  static_assert(sizeof(T) == 4, "sequential loads are 4-byte elements");
  if (n <= 0) return WVec<T>{};
  if (n > kWarpSize) n = kWarpSize;
  if (sys_->mem.mode() != MemoryMode::kFast) [[unlikely]]
    return load_vec<T>(base, seq_idx(start, n), lanes_below(n));
  WVec<T> out;
  for (int l = n; l < kWarpSize; ++l) out[static_cast<std::size_t>(l)] = T{};
  const std::uint64_t a0 = base.addr(start);
  sys_->l1[static_cast<std::size_t>(sm_)].prefetch_set(a0);
  sys_->mem.read_block(a0, out.data(), static_cast<std::size_t>(n));
  if (sys_->trace != nullptr) [[unlikely]]
    record_trace(seq_addrs(a0, n), lanes_below(n), 4, Op::kLoad, false);
  ++slot_;
  request_span(a0, a0 + 4u * static_cast<std::uint32_t>(n - 1), Op::kLoad);
  return out;
}

WVec<float> WarpCtx::load_f32_seq(DevPtr<float> base, std::int64_t start,
                                  int n) {
  return load_seq_vec<float>(base, start, n);
}

WVec<std::int32_t> WarpCtx::load_i32_seq(DevPtr<std::int32_t> base,
                                         std::int64_t start, int n) {
  return load_seq_vec<std::int32_t>(base, start, n);
}

void WarpCtx::store_f32_seq(DevPtr<float> base, std::int64_t start,
                            const WVec<float>& val, int n) {
  if (n <= 0) return;
  if (n > kWarpSize) n = kWarpSize;
  if (sys_->mem.mode() != MemoryMode::kFast) [[unlikely]] {
    store_f32(base, seq_idx(start, n), val, lanes_below(n));
    return;
  }
  const std::uint64_t a0 = base.addr(start);
  sys_->l1[static_cast<std::size_t>(sm_)].prefetch_set(a0);
  sys_->mem.write_block(a0, val.data(), static_cast<std::size_t>(n));
  if (sys_->trace != nullptr) [[unlikely]]
    record_trace(seq_addrs(a0, n), lanes_below(n), 4, Op::kStore, false);
  ++slot_;
  request_span(a0, a0 + 4u * static_cast<std::uint32_t>(n - 1), Op::kStore);
}

void WarpCtx::atomic_add_f32_seq(DevPtr<float> base, std::int64_t start,
                                 const WVec<float>& val, int n) {
  if (n <= 0) return;
  if (n > kWarpSize) n = kWarpSize;
  if (sys_->mem.mode() != MemoryMode::kFast) [[unlikely]] {
    atomic_add_f32(base, seq_idx(start, n), val, lanes_below(n));
    return;
  }
  const std::uint64_t a0 = base.addr(start);
  sys_->l2.prefetch_set(a0);  // atomics resolve at the L2 units
  WVec<float> cur;
  sys_->mem.read_block(a0, cur.data(), static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l)
    cur[static_cast<std::size_t>(l)] += val[static_cast<std::size_t>(l)];
  sys_->mem.write_block(a0, cur.data(), static_cast<std::size_t>(n));
  if (sys_->trace != nullptr) [[unlikely]]
    record_trace(seq_addrs(a0, n), lanes_below(n), 4, Op::kAtomic, false);
  ++slot_;
  request_span(a0, a0 + 4u * static_cast<std::uint32_t>(n - 1), Op::kAtomic);
  sys_->rec->atomic_ops += n;
  // The n addresses are distinct by construction, so the scattered path's
  // worst-conflict replay charge is identically zero — nothing to add.
}

namespace {

/// Worst per-address lane multiplicity minus one — the replay count the
/// atomic units serialize on. Equivalent to the old per-lane prior-conflict
/// scan (the last lane of the most contended address saw count-1 priors),
/// but O(lanes) via the same 64-slot table request() uses for line dedup.
int worst_atomic_conflict(const std::array<std::uint64_t, kWarpSize>& addr,
                          Mask m) {
  std::array<std::uint8_t, 64> slot_of{};
  std::array<std::uint8_t, kWarpSize> count{};
  std::array<std::uint64_t, kWarpSize> uniq;
  std::uint64_t used = 0;
  int nuniq = 0;
  int worst = 0;
  for (Mask rem = m; rem != 0; rem &= rem - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(rem));
    const std::uint64_t a = addr[l];
    std::uint32_t h = hash64(a);
    int found = -1;
    while ((used >> h) & 1u) {
      const auto i = slot_of[h];
      if (uniq[i] == a) {
        found = i;
        break;
      }
      h = (h + 1) & 63u;
    }
    if (found < 0) {
      used |= std::uint64_t{1} << h;
      slot_of[h] = static_cast<std::uint8_t>(nuniq);
      uniq[static_cast<std::size_t>(nuniq)] = a;
      count[static_cast<std::size_t>(nuniq++)] = 1;
    } else {
      const int c = ++count[static_cast<std::size_t>(found)];
      worst = std::max(worst, c - 1);
    }
  }
  return worst;
}

}  // namespace

void WarpCtx::atomic_add_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                             const WVec<float>& val, Mask m) {
  std::array<std::uint64_t, kWarpSize> addr{};
  // Apply the adds in lane order (floating-point order matters), then charge
  // the worst per-address conflict the atomic units must serialize (replay).
  for (Mask rem = m; rem != 0; rem &= rem - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(rem));
    const std::uint64_t a = base.addr(idx[l]);
    addr[l] = a;
    const float old = sys_->mem.read<float>(a);
    sys_->mem.write<float>(a, old + val[l]);
    note_store(a, 4, /*atomic=*/true);
  }
  const int worst_conflict = worst_atomic_conflict(addr, m);
  request(addr, m, 4, Op::kAtomic);
  sys_->rec->atomic_ops += std::popcount(m);
  const double replay =
      static_cast<double>(worst_conflict) * sys_->spec.atomic_replay_cycles;
  mem_ += replay;
  sys_->rec->atomic_stall_cycles += replay;
}

void WarpCtx::atomic_max_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                             const WVec<float>& val, Mask m) {
  std::array<std::uint64_t, kWarpSize> addr{};
  for (Mask rem = m; rem != 0; rem &= rem - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(rem));
    const std::uint64_t a = base.addr(idx[l]);
    addr[l] = a;
    const float old = sys_->mem.read<float>(a);
    sys_->mem.write<float>(a, std::max(old, val[l]));
    note_store(a, 4, /*atomic=*/true);
  }
  const int worst_conflict = worst_atomic_conflict(addr, m);
  request(addr, m, 4, Op::kAtomic);
  sys_->rec->atomic_ops += std::popcount(m);
  const double replay =
      static_cast<double>(worst_conflict) * sys_->spec.atomic_replay_cycles;
  mem_ += replay;
  sys_->rec->atomic_stall_cycles += replay;
}

float WarpCtx::load_scalar_f32(DevPtr<float> base, std::int64_t idx) {
  const std::uint64_t a = base.addr(idx);
  const float v = sys_->mem.read<float>(a);
  request_scalar(a, 4, Op::kLoad);
  return v;
}

std::int32_t WarpCtx::load_scalar_i32(DevPtr<std::int32_t> base,
                                      std::int64_t idx) {
  const std::uint64_t a = base.addr(idx);
  const auto v = sys_->mem.read<std::int32_t>(a);
  request_scalar(a, 4, Op::kLoad);
  return v;
}

std::int64_t WarpCtx::load_scalar_i64(DevPtr<std::int64_t> base,
                                      std::int64_t idx) {
  const std::uint64_t a = base.addr(idx);
  const auto v = sys_->mem.read<std::int64_t>(a);
  request_scalar(a, 8, Op::kLoad);
  return v;
}

void WarpCtx::store_scalar_f32(DevPtr<float> base, std::int64_t idx, float v) {
  const std::uint64_t a = base.addr(idx);
  sys_->mem.write<float>(a, v);
  note_store(a, 4, /*atomic=*/false);
  request_scalar(a, 4, Op::kStore);
}

std::uint32_t WarpCtx::atomic_add_u32(DevPtr<std::uint32_t> base,
                                      std::int64_t idx, std::uint32_t add) {
  const std::uint64_t a = base.addr(idx);
  const auto old = sys_->mem.read<std::uint32_t>(a);
  sys_->mem.write<std::uint32_t>(a, old + add);
  note_store(a, 4, /*atomic=*/true);
  request_scalar(a, 4, Op::kAtomic);
  sys_->rec->atomic_ops += 1;
  return old;
}

float WarpCtx::atomic_add_scalar_f32(DevPtr<float> base, std::int64_t idx,
                                     float v) {
  const std::uint64_t a = base.addr(idx);
  const float old = sys_->mem.read<float>(a);
  sys_->mem.write<float>(a, old + v);
  note_store(a, 4, /*atomic=*/true);
  request_scalar(a, 4, Op::kAtomic);
  sys_->rec->atomic_ops += 1;
  return old;
}

float WarpCtx::reduce_sum(const WVec<float>& v, Mask m) {
  charge_alu(10);  // 5 butterfly shuffles + 5 adds
  float s = 0.0f;
  for (Mask rem = m; rem != 0; rem &= rem - 1) {
    s += v[static_cast<std::size_t>(std::countr_zero(rem))];
  }
  return s;
}

float WarpCtx::reduce_max(const WVec<float>& v, Mask m) {
  charge_alu(10);
  float best = -std::numeric_limits<float>::infinity();
  for (Mask rem = m; rem != 0; rem &= rem - 1) {
    best = std::max(best, v[static_cast<std::size_t>(std::countr_zero(rem))]);
  }
  return best;
}

}  // namespace tlp::sim
