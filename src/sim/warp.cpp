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

/// Groups the active lanes by `key(addr)` in first-occurrence order: calls
/// `visit(group, addr, first)` for each active lane in ascending lane order
/// and returns the number of groups. `first` marks the lane that opens its
/// group, so callers need not zero their per-group arrays. The newest group
/// is checked first (consecutive lanes usually share it); other keys go
/// through a 64-slot Fibonacci-hash table, which at most 32 keys never fill
/// more than half, so linear probing always terminates.
template <class Key, class Visit>
int group_by(const std::array<std::uint64_t, kWarpSize>& addr, Mask m,
             Key key, Visit visit) {
  std::array<std::uint64_t, kWarpSize> keys;  // only keys[0..n) are read
  std::array<std::uint8_t, 64> slot_of{};
  std::uint64_t used = 0;  // occupied `slot_of` entries
  int n = 0;
  for (Mask rem = m; rem != 0; rem &= rem - 1) {
    const std::uint64_t a = addr[static_cast<std::size_t>(std::countr_zero(rem))];
    const std::uint64_t k = key(a);
    int g = n - 1;
    bool first = false;
    if (n == 0 || keys[static_cast<std::size_t>(g)] != k) {
      auto h = static_cast<std::uint32_t>((k * 0x9E3779B97F4A7C15ull) >> 58);
      while (((used >> h) & 1u) && keys[slot_of[h]] != k) h = (h + 1) & 63u;
      if (((used >> h) & 1u) == 0) {
        used |= std::uint64_t{1} << h;
        slot_of[h] = static_cast<std::uint8_t>(n);
        keys[static_cast<std::size_t>(n)] = k;
        g = n++;
        first = true;
      } else {
        g = slot_of[h];
      }
    }
    visit(g, a, first);
  }
  return n;
}

/// Lane indices start..start+n-1: a `*_seq` request replayed through the
/// lane walk (guarded memory mode).
WVec<std::int64_t> seq_idx(std::int64_t start, int n) {
  WVec<std::int64_t> idx{};
  for (int l = 0; l < n; ++l) idx[static_cast<std::size_t>(l)] = start + l;
  return idx;
}

/// A run request's shape (WarpCtx::load_f32_runs): every lane it names,
/// r*stride+k, lies inside the warp. Checked in release builds too, since a
/// lane past the warp would move data past the caller's WVec.
void check_runs(Mask runs, int stride, int n) {
  TLP_CHECK(stride >= 1 && stride <= kWarpSize &&
            std::has_single_bit(static_cast<unsigned>(stride)) &&
            n <= stride && (runs & ~lanes_below(kWarpSize / stride)) == 0);
}

/// The lane form of a run request: lane r*stride+k of each run r gets index
/// start[r]+k. Fills those entries of `idx` and returns their lane mask.
Mask run_lanes(const WVec<std::int64_t>& start, Mask runs, int stride, int n,
               WVec<std::int64_t>& idx) {
  Mask m = 0;
  for (Mask rem = runs; rem != 0; rem &= rem - 1) {
    const int r = std::countr_zero(rem);
    const int l0 = r * stride;
    for (int k = 0; k < n; ++k)
      idx[static_cast<std::size_t>(l0 + k)] =
          start[static_cast<std::size_t>(r)] + k;
    m |= lanes_below(n) << l0;
  }
  return m;
}

}  // namespace

void WarpCtx::record_trace(const LaneAddrs& addr, Mask m, int bytes_per_lane,
                           Op op, bool scalar) {
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

inline void WarpCtx::charge(const SectorLine* lines, int n, Op op) {
  MemorySystem& sys = *sys_;
  KernelRecord& rec = *sys.rec;
  const GpuSpec& spec = sys.spec;
  SetAssocCache& l1 = sys.l1[static_cast<std::size_t>(sm_)];
  ++slot_;
  rec.requests += 1;
  issue_ += 1;  // the ld/st instruction itself
  double worst_latency = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t probe_addr = lines[i].line << 7;
    const int nsec = std::popcount(lines[i].sectors);
    const std::int64_t bytes = nsec * static_cast<std::int64_t>(spec.sector_bytes);
    rec.sectors += nsec;
    // Write-through L1: every store sector crosses the L1<->L2 bus.
    if (op == Op::kStore) rec.bytes_store += bytes;
    if (op == Op::kAtomic) rec.bytes_atomic += bytes;
    // Global atomics resolve at the L2 atomic units and bypass L1.
    bool l1_hit = false;
    if (op != Op::kAtomic) {
      rec.l1_accesses++;
      l1_hit = l1.access(probe_addr);
    }
    double latency = spec.l1_latency;
    if (l1_hit) {
      rec.l1_hits++;
    } else {
      if (op == Op::kLoad) rec.bytes_load += bytes;
      rec.l2_accesses++;
      const bool l2_hit = sys.l2.access(probe_addr);
      if (l2_hit) {
        rec.l2_hits++;
      } else {
        rec.bytes_dram += bytes;
      }
      latency = l2_hit ? spec.l2_latency : spec.dram_latency;
    }
    worst_latency = i == 0 ? latency : std::max(worst_latency, latency);
  }
  // Loads pipeline a few deep before the scoreboard stalls the warp; stores
  // retire without stalling it; atomics serialize, with no pipelining.
  if (op == Op::kLoad) mem_ += worst_latency / spec.load_pipeline_depth;
  if (op == Op::kAtomic) mem_ += spec.atomic_latency;
}

// The lane walk keeps line0, off_line and the sector mask in registers, so
// the common request, a warp on one contiguous 128 B feature row, prices one
// line without re-reading the 256 B address array or building a dedup
// table. The probe's tag set is host-prefetched as soon as line0 is known.

template <WarpCtx::Op op, class T, class Move>
void WarpCtx::walk(DevPtr<T> base, const WVec<std::int64_t>& idx, Mask m,
                   Move move) {
  if (m == 0) return;
  LaneAddrs addr{};
  const std::uint64_t line0 =
      base.addr(idx[static_cast<std::size_t>(std::countr_zero(m))]) >> 7;
  if constexpr (op != Op::kAtomic)
    sys_->l1[static_cast<std::size_t>(sm_)].prefetch_set(line0 << 7);
  std::uint64_t off_line = 0;  // nonzero if any active lane leaves line0
  std::uint32_t smask = 0;
  const auto lane = [&](std::size_t l) {
    const std::uint64_t a = base.addr(idx[l]);
    addr[l] = a;
    move(l, a);
    if constexpr (op != Op::kLoad)
      note_store(a, static_cast<int>(sizeof(T)), op == Op::kAtomic);
    off_line |= (a >> 7) ^ line0;
    smask |= 1u << ((a >> 5) & 3u);
  };
  if (m == kFullMask) {
    for (std::size_t l = 0; l < kWarpSize; ++l) lane(l);
  } else {
    for (Mask rem = m; rem != 0; rem &= rem - 1)
      lane(static_cast<std::size_t>(std::countr_zero(rem)));
  }
  if (sys_->trace != nullptr) [[unlikely]]
    record_trace(addr, m, static_cast<int>(sizeof(T)), op, false);

  if (off_line == 0) {
    const SectorLine line{line0, smask};
    charge(&line, 1, op);
  } else {
    std::array<SectorLine, kWarpSize> lines;
    const int nlines = group_by(
        addr, m, [](std::uint64_t a) { return a >> 7; },
        [&](int g, std::uint64_t a, bool first) {
          auto& e = lines[static_cast<std::size_t>(g)];
          if (first) e = {a >> 7, 0};
          e.sectors |= 1u << ((a >> 5) & 3u);
        });
    charge(lines.data(), nlines, op);
  }
  if constexpr (op == Op::kAtomic) {
    // The atomic units serialize the lanes that share an address: charge
    // the most contended address's extra lanes as replays.
    std::array<std::uint8_t, kWarpSize> lanes_on;  // per distinct address
    int most = 0;  // lanes on the most contended address
    group_by(
        addr, m, [](std::uint64_t a) { return a; },
        [&](int g, std::uint64_t, bool first) {
          auto& c = lanes_on[static_cast<std::size_t>(g)];
          c = first ? std::uint8_t{1} : static_cast<std::uint8_t>(c + 1);
          most = std::max(most, int{c});
        });
    sys_->rec->atomic_ops += std::popcount(m);
    const double replay =
        static_cast<double>(most - 1) * sys_->spec.atomic_replay_cycles;
    mem_ += replay;
    sys_->rec->atomic_stall_cycles += replay;
  }
}

template <class T>
WVec<T> WarpCtx::gather(DevPtr<T> base, const WVec<std::int64_t>& idx,
                        Mask m) {
  WVec<T> out{};
  const DeviceMemory& mem = sys_->mem;
  walk<Op::kLoad>(base, idx, m,
                  [&](std::size_t l, std::uint64_t a) { out[l] = mem.read<T>(a); });
  return out;
}

WVec<float> WarpCtx::load_f32(DevPtr<float> base,
                              const WVec<std::int64_t>& idx, Mask m) {
  return gather(base, idx, m);
}

WVec<std::int32_t> WarpCtx::load_i32(DevPtr<std::int32_t> base,
                                     const WVec<std::int64_t>& idx, Mask m) {
  return gather(base, idx, m);
}

WVec<std::int64_t> WarpCtx::load_i64(DevPtr<std::int64_t> base,
                                     const WVec<std::int64_t>& idx, Mask m) {
  return gather(base, idx, m);
}

void WarpCtx::store_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                        const WVec<float>& val, Mask m) {
  DeviceMemory& mem = sys_->mem;
  walk<Op::kStore>(base, idx, m, [&](std::size_t l, std::uint64_t a) {
    mem.write<float>(a, val[l]);
  });
}

// Atomics apply in lane order: floating-point order matters.

void WarpCtx::atomic_add_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                             const WVec<float>& val, Mask m) {
  DeviceMemory& mem = sys_->mem;
  walk<Op::kAtomic>(base, idx, m, [&](std::size_t l, std::uint64_t a) {
    mem.write<float>(a, mem.read<float>(a) + val[l]);
  });
}

void WarpCtx::atomic_max_f32(DevPtr<float> base, const WVec<std::int64_t>& idx,
                             const WVec<float>& val, Mask m) {
  DeviceMemory& mem = sys_->mem;
  walk<Op::kAtomic>(base, idx, m, [&](std::size_t l, std::uint64_t a) {
    mem.write<float>(a, std::max(mem.read<float>(a), val[l]));
  });
}

// The `*_seq` entry points move the data with one range-checked block copy
// and price the closed-form span. Guarded memory mode replays them through
// the lane walk, so redzone, use-after-free and write-race checking still
// see every lane. Every observable effect (data, counters, cache state,
// costs, trace) equals the lane walk's with idx[l] = start+l.

inline int WarpCtx::span_lines(std::uint64_t a0, int n, SectorLine* out) {
  // Bits s0.. of the first line and ..s1 of the last: at most 32 4-byte
  // elements span at most two lines.
  const std::uint64_t a1 = a0 + 4u * static_cast<std::uint32_t>(n - 1);
  const std::uint64_t line0 = a0 >> 7;
  const std::uint64_t line1 = a1 >> 7;
  const auto s0 = static_cast<std::uint32_t>((a0 >> 5) & 3u);
  const auto s1 = static_cast<std::uint32_t>((a1 >> 5) & 3u);
  if (line0 == line1) {
    out[0] = {line0, (2u << s1) - (1u << s0)};
    return 1;
  }
  out[0] = {line0, 16u - (1u << s0)};
  out[1] = {line1, (2u << s1) - 1u};
  return 2;
}

void WarpCtx::span(std::uint64_t a0, int n, Op op) {
  if (sys_->trace != nullptr) [[unlikely]] {
    LaneAddrs addr{};
    for (int l = 0; l < n; ++l)
      addr[static_cast<std::size_t>(l)] = a0 + 4u * static_cast<std::uint32_t>(l);
    record_trace(addr, lanes_below(n), 4, op, false);
  }
  // Two calls, so each charge copy is specialised to its line count.
  SectorLine lines[2];
  if (span_lines(a0, n, lines) == 1)
    charge(lines, 1, op);
  else
    charge(lines, 2, op);
}

template <class T>
WVec<T> WarpCtx::gather_seq(DevPtr<T> base, std::int64_t start, int n) {
  static_assert(sizeof(T) == 4, "sequential loads are 4-byte elements");
  if (n <= 0) return WVec<T>{};
  n = std::min(n, kWarpSize);
  if (sys_->mem.mode() != MemoryMode::kFast) [[unlikely]]
    return gather(base, seq_idx(start, n), lanes_below(n));
  WVec<T> out{};
  const std::uint64_t a0 = base.addr(start);
  sys_->l1[static_cast<std::size_t>(sm_)].prefetch_set(a0);
  sys_->mem.read_block(a0, out.data(), static_cast<std::size_t>(n));
  span(a0, n, Op::kLoad);
  return out;
}

WVec<float> WarpCtx::load_f32_seq(DevPtr<float> base, std::int64_t start,
                                  int n) {
  return gather_seq(base, start, n);
}

WVec<std::int32_t> WarpCtx::load_i32_seq(DevPtr<std::int32_t> base,
                                         std::int64_t start, int n) {
  return gather_seq(base, start, n);
}

void WarpCtx::store_f32_seq(DevPtr<float> base, std::int64_t start,
                            const WVec<float>& val, int n) {
  if (n <= 0) return;
  n = std::min(n, kWarpSize);
  if (sys_->mem.mode() != MemoryMode::kFast) [[unlikely]]
    return store_f32(base, seq_idx(start, n), val, lanes_below(n));
  const std::uint64_t a0 = base.addr(start);
  sys_->l1[static_cast<std::size_t>(sm_)].prefetch_set(a0);
  sys_->mem.write_block(a0, val.data(), static_cast<std::size_t>(n));
  span(a0, n, Op::kStore);
}

void WarpCtx::atomic_add_f32_seq(DevPtr<float> base, std::int64_t start,
                                 const WVec<float>& val, int n) {
  if (n <= 0) return;
  n = std::min(n, kWarpSize);
  if (sys_->mem.mode() != MemoryMode::kFast) [[unlikely]]
    return atomic_add_f32(base, seq_idx(start, n), val, lanes_below(n));
  const std::uint64_t a0 = base.addr(start);
  sys_->l2.prefetch_set(a0);  // atomics resolve at the L2 units
  WVec<float> cur;
  sys_->mem.read_block(a0, cur.data(), static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l)
    cur[static_cast<std::size_t>(l)] += val[static_cast<std::size_t>(l)];
  sys_->mem.write_block(a0, cur.data(), static_cast<std::size_t>(n));
  span(a0, n, Op::kAtomic);
  // Distinct addresses by construction: the conflict replay is zero.
  sys_->rec->atomic_ops += n;
}

// The run ops move each run with one block copy and price the request from
// the runs' closed-form spans. Runs are visited in ascending order, which is
// ascending lane order, and a run's lines come in ascending address order,
// so appending each line not seen yet (and OR-ing the sectors of one that
// was) rebuilds the lane walk's first-occurrence line set. Guarded memory
// mode and an attached trace replay the request through the lane walk.

void WarpCtx::price_runs(DevPtr<float> base, const WVec<std::int64_t>& start,
                         Mask runs, int n, Op op) {
  std::array<SectorLine, kWarpSize> lines;  // distinct lines <= lanes
  int nlines = 0;
  for (Mask rem = runs; rem != 0; rem &= rem - 1) {
    SectorLine run[2];
    const int k = span_lines(
        base.addr(start[static_cast<std::size_t>(std::countr_zero(rem))]), n,
        run);
    for (int j = 0; j < k; ++j) {
      int i = nlines - 1;  // newest first: neighbouring runs share lines
      while (i >= 0 && lines[static_cast<std::size_t>(i)].line != run[j].line)
        --i;
      if (i >= 0)
        lines[static_cast<std::size_t>(i)].sectors |= run[j].sectors;
      else
        lines[static_cast<std::size_t>(nlines++)] = run[j];
    }
  }
  charge(lines.data(), nlines, op);
}

WVec<float> WarpCtx::load_f32_runs(DevPtr<float> base,
                                   const WVec<std::int64_t>& start, Mask runs,
                                   int stride, int n) {
  check_runs(runs, stride, n);
  WVec<float> out{};
  if (runs == 0 || n <= 0) return out;
  if (sys_->mem.mode() != MemoryMode::kFast || sys_->trace != nullptr)
      [[unlikely]] {
    WVec<std::int64_t> idx{};
    const Mask m = run_lanes(start, runs, stride, n, idx);
    return gather(base, idx, m);
  }
  for (Mask rem = runs; rem != 0; rem &= rem - 1) {
    const int r = std::countr_zero(rem);
    sys_->mem.read_block(base.addr(start[static_cast<std::size_t>(r)]),
                         &out[static_cast<std::size_t>(r * stride)],
                         static_cast<std::size_t>(n));
  }
  price_runs(base, start, runs, n, Op::kLoad);
  return out;
}

void WarpCtx::store_f32_runs(DevPtr<float> base,
                             const WVec<std::int64_t>& start,
                             const WVec<float>& val, Mask runs, int stride,
                             int n) {
  check_runs(runs, stride, n);
  if (runs == 0 || n <= 0) return;
  if (sys_->mem.mode() != MemoryMode::kFast || sys_->trace != nullptr)
      [[unlikely]] {
    WVec<std::int64_t> idx{};
    const Mask m = run_lanes(start, runs, stride, n, idx);
    return store_f32(base, idx, val, m);
  }
  for (Mask rem = runs; rem != 0; rem &= rem - 1) {
    const int r = std::countr_zero(rem);
    sys_->mem.write_block(base.addr(start[static_cast<std::size_t>(r)]),
                          &val[static_cast<std::size_t>(r * stride)],
                          static_cast<std::size_t>(n));
  }
  price_runs(base, start, runs, n, Op::kStore);
}

inline void WarpCtx::scalar(std::uint64_t a, int bytes_per_lane, Op op) {
  if (sys_->trace != nullptr) [[unlikely]] {
    LaneAddrs addr{};
    addr[0] = a;
    record_trace(addr, 0x1u, bytes_per_lane, op, /*scalar=*/true);
  }
  const SectorLine line{a >> 7, 1u << ((a >> 5) & 3u)};
  charge(&line, 1, op);
}

float WarpCtx::load_scalar_f32(DevPtr<float> base, std::int64_t idx) {
  const std::uint64_t a = base.addr(idx);
  const float v = sys_->mem.read<float>(a);
  scalar(a, 4, Op::kLoad);
  return v;
}

std::int32_t WarpCtx::load_scalar_i32(DevPtr<std::int32_t> base,
                                      std::int64_t idx) {
  const std::uint64_t a = base.addr(idx);
  const auto v = sys_->mem.read<std::int32_t>(a);
  scalar(a, 4, Op::kLoad);
  return v;
}

std::int64_t WarpCtx::load_scalar_i64(DevPtr<std::int64_t> base,
                                      std::int64_t idx) {
  const std::uint64_t a = base.addr(idx);
  const auto v = sys_->mem.read<std::int64_t>(a);
  scalar(a, 8, Op::kLoad);
  return v;
}

void WarpCtx::store_scalar_f32(DevPtr<float> base, std::int64_t idx, float v) {
  const std::uint64_t a = base.addr(idx);
  sys_->mem.write<float>(a, v);
  note_store(a, 4, /*atomic=*/false);
  scalar(a, 4, Op::kStore);
}

std::uint32_t WarpCtx::atomic_add_u32(DevPtr<std::uint32_t> base,
                                      std::int64_t idx, std::uint32_t add) {
  const std::uint64_t a = base.addr(idx);
  const auto old = sys_->mem.read<std::uint32_t>(a);
  sys_->mem.write<std::uint32_t>(a, old + add);
  note_store(a, 4, /*atomic=*/true);
  scalar(a, 4, Op::kAtomic);
  sys_->rec->atomic_ops += 1;
  return old;
}

float WarpCtx::atomic_add_scalar_f32(DevPtr<float> base, std::int64_t idx,
                                     float v) {
  const std::uint64_t a = base.addr(idx);
  const float old = sys_->mem.read<float>(a);
  sys_->mem.write<float>(a, old + v);
  note_store(a, 4, /*atomic=*/true);
  scalar(a, 4, Op::kAtomic);
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
