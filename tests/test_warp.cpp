// Tests for the warp-level memory model: coalescing (sector counting),
// cache-aware traffic accounting, atomic conflict serialization, the
// equivalence of the sequential, run and scalar front ends with the lane
// path, and the warp collectives.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <functional>
#include <tuple>

#include "common/rng.hpp"
#include "sim/warp.hpp"

namespace tlp::sim {
namespace {

struct WarpFixture : ::testing::Test {
  WarpFixture() : sys(GpuSpec::v100()) {
    sys.rec = &rec;
    data = sys.mem.alloc<float>(1 << 20);
    auto v = sys.mem.view(data);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<float>(i);
  }

  WVec<std::int64_t> iota(std::int64_t base, std::int64_t stride = 1) {
    WVec<std::int64_t> idx{};
    for (int l = 0; l < kWarpSize; ++l)
      idx[static_cast<std::size_t>(l)] = base + l * stride;
    return idx;
  }

  MemorySystem sys;
  KernelRecord rec;
  DevPtr<float> data;
};

TEST_F(WarpFixture, CoalescedLoadIsFourSectors) {
  WarpCtx w(sys, 0);
  const auto out = w.load_f32(data, iota(0), kFullMask);
  EXPECT_EQ(rec.requests, 1);
  EXPECT_EQ(rec.sectors, 4);  // 32 floats = 128 B = 4 x 32 B sectors
  EXPECT_FLOAT_EQ(out[5], 5.0f);
}

TEST_F(WarpFixture, ScatteredLoadIsThirtyTwoSectors) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0, 128), kFullMask);  // 512 B stride
  EXPECT_EQ(rec.requests, 1);
  EXPECT_EQ(rec.sectors, 32);
}

TEST_F(WarpFixture, ScalarLoadIsOneSector) {
  WarpCtx w(sys, 0);
  EXPECT_FLOAT_EQ(w.load_scalar_f32(data, 77), 77.0f);
  EXPECT_EQ(rec.sectors, 1);
}

TEST_F(WarpFixture, MaskLimitsSectors) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0), lanes_below(8));  // 8 floats = 1 sector
  EXPECT_EQ(rec.sectors, 1);
}

TEST_F(WarpFixture, EmptyMaskIsFree) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0), 0);
  EXPECT_EQ(rec.requests, 0);
  EXPECT_DOUBLE_EQ(w.total_cycles(), 0.0);
}

TEST_F(WarpFixture, RepeatLoadHitsL1AndSkipsTraffic) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0), kFullMask);
  const auto cold_bytes = rec.bytes_load;
  EXPECT_EQ(cold_bytes, 4 * 32);
  (void)w.load_f32(data, iota(0), kFullMask);
  EXPECT_EQ(rec.bytes_load, cold_bytes);  // L1 hit: no L2 traffic
  EXPECT_EQ(rec.l1_hits, 1);
}

TEST_F(WarpFixture, DifferentSmHasOwnL1) {
  WarpCtx w0(sys, 0);
  (void)w0.load_f32(data, iota(0), kFullMask);
  WarpCtx w1(sys, 1);
  (void)w1.load_f32(data, iota(0), kFullMask);
  EXPECT_EQ(rec.l1_hits, 0);   // different SM's L1 is cold
  EXPECT_EQ(rec.l2_hits, 1);   // but the shared L2 hits
}

TEST_F(WarpFixture, L2HitIsCheaperThanDram) {
  WarpCtx w0(sys, 0);
  (void)w0.load_f32(data, iota(0), kFullMask);
  const double dram_cost = w0.mem_cycles();
  WarpCtx w1(sys, 1);
  (void)w1.load_f32(data, iota(0), kFullMask);
  EXPECT_LT(w1.mem_cycles(), dram_cost);
}

TEST_F(WarpFixture, StoreWritesDataAndCountsTraffic) {
  WarpCtx w(sys, 0);
  WVec<float> vals{};
  for (int l = 0; l < kWarpSize; ++l) vals[static_cast<std::size_t>(l)] = 2.5f;
  w.store_f32(data, iota(64), vals, kFullMask);
  EXPECT_FLOAT_EQ(sys.mem.view(data)[64], 2.5f);
  EXPECT_EQ(rec.bytes_store, 4 * 32);
}

TEST_F(WarpFixture, AtomicAddAppliesAllLanes) {
  WarpCtx w(sys, 0);
  WVec<std::int64_t> idx{};  // all lanes hit index 0
  WVec<float> vals{};
  for (int l = 0; l < kWarpSize; ++l) vals[static_cast<std::size_t>(l)] = 1.0f;
  sys.mem.view(data)[0] = 0.0f;
  w.atomic_add_f32(data, idx, vals, kFullMask);
  EXPECT_FLOAT_EQ(sys.mem.view(data)[0], 32.0f);
  EXPECT_EQ(rec.atomic_ops, 32);
  EXPECT_GT(rec.bytes_atomic, 0);
}

TEST_F(WarpFixture, AtomicConflictsSerialize) {
  WarpCtx conflict(sys, 0);
  WVec<std::int64_t> same{};  // 32-way conflict
  WVec<float> vals{};
  conflict.atomic_add_f32(data, same, vals, kFullMask);
  const double conflict_cost = conflict.mem_cycles();

  WarpCtx spread(sys, 0);
  spread.atomic_add_f32(data, iota(1024), vals, kFullMask);
  EXPECT_GT(conflict_cost, spread.mem_cycles() + 30 * 31);
}

TEST_F(WarpFixture, AtomicMaxApplies) {
  WarpCtx w(sys, 0);
  WVec<std::int64_t> idx{};
  WVec<float> vals{};
  vals[3] = 99.0f;
  sys.mem.view(data)[0] = 1.0f;
  w.atomic_max_f32(data, idx, vals, kFullMask);
  EXPECT_FLOAT_EQ(sys.mem.view(data)[0], 99.0f);
}

TEST_F(WarpFixture, AtomicU32FetchAdd) {
  auto ctr = sys.mem.alloc<std::uint32_t>(1);
  sys.mem.view(ctr)[0] = 5;
  WarpCtx w(sys, 0);
  EXPECT_EQ(w.atomic_add_u32(ctr, 0, 3), 5u);
  EXPECT_EQ(sys.mem.view(ctr)[0], 8u);
}

TEST_F(WarpFixture, AtomicsBypassL1) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0), kFullMask);  // line now in L1
  const auto l1_before = rec.l1_accesses;
  WVec<float> vals{};
  w.atomic_add_f32(data, iota(0), vals, kFullMask);
  EXPECT_EQ(rec.l1_accesses, l1_before);  // atomic did not touch L1
}

TEST_F(WarpFixture, ReduceSumAndMax) {
  WarpCtx w(sys, 0);
  WVec<float> v{};
  for (int l = 0; l < kWarpSize; ++l)
    v[static_cast<std::size_t>(l)] = static_cast<float>(l);
  EXPECT_FLOAT_EQ(w.reduce_sum(v, kFullMask), 496.0f);
  EXPECT_FLOAT_EQ(w.reduce_max(v, kFullMask), 31.0f);
  EXPECT_FLOAT_EQ(w.reduce_sum(v, lanes_below(4)), 6.0f);
  EXPECT_GT(w.issue_cycles(), 0.0);
}

TEST_F(WarpFixture, ChargeAluAccumulates) {
  WarpCtx w(sys, 0);
  w.charge_alu(3);
  w.charge_alu();
  EXPECT_DOUBLE_EQ(w.issue_cycles(), 4.0);
}

TEST_F(WarpFixture, StoreProbesL1ThenL2AndWritesThrough) {
  WarpCtx w(sys, 0);
  WVec<float> vals{};
  w.store_f32(data, iota(0), vals, kFullMask);
  EXPECT_EQ(rec.l1_accesses, 1);
  EXPECT_EQ(rec.l2_accesses, 1);
  EXPECT_EQ(rec.bytes_store, 4 * 32);
  EXPECT_EQ(rec.bytes_dram, 4 * 32);
  EXPECT_DOUBLE_EQ(w.mem_cycles(), 0.0);  // stores retire without stalling
  (void)w.load_f32(data, iota(0), kFullMask);
  EXPECT_EQ(rec.l1_hits, 1);  // the store left the line in L1
  EXPECT_EQ(rec.bytes_load, 0);
}

// --- front-end equivalence ----------------------------------------------------
//
// The `*_seq` and scalar entry points promise to be byte-identical to the
// general lane path. Each check runs one front end on one twin and the lane
// call on the other, then compares every observable effect: counters, costs,
// arena bytes, cache contents and the trace.

struct Twin {
  MemorySystem sys;
  KernelRecord rec;
  AccessTrace trace;
  WarpCtx warp{sys, 0, 5};
  DevPtr<float> f32;
  DevPtr<std::int32_t> i32;
  DevPtr<std::int64_t> i64;
  DevPtr<std::uint32_t> u32;

  /// `traced` = false leaves the trace detached (its kernel stays empty).
  explicit Twin(MemoryMode mode = MemoryMode::kFast,
                const GpuSpec& spec = GpuSpec::v100(), bool traced = true)
      : sys(spec) {
    sys.mem.set_mode(mode);
    sys.rec = &rec;
    sys.trace = traced ? &trace : nullptr;
    trace.begin_kernel("twin");
    f32 = sys.mem.alloc<float>(1024);
    i32 = sys.mem.alloc<std::int32_t>(1024);
    i64 = sys.mem.alloc<std::int64_t>(1024);
    u32 = sys.mem.alloc<std::uint32_t>(1024);
    for (int i = 0; i < 1024; ++i) {
      const auto k = static_cast<std::size_t>(i);
      sys.mem.view(f32)[k] = 0.25f * static_cast<float>(i);
      sys.mem.view(i32)[k] = 3 * i;
      sys.mem.view(i64)[k] = 5 * i;
      sys.mem.view(u32)[k] = static_cast<std::uint32_t>(7 * i);
    }
  }
};

template <class T>
bool same_bytes(const Twin& a, const Twin& b, DevPtr<T> pa, DevPtr<T> pb) {
  const auto va = a.sys.mem.view(pa);
  const auto vb = b.sys.mem.view(pb);
  return std::memcmp(va.data(), vb.data(), va.size() * sizeof(T)) == 0;
}

/// Everything `a` and `b` must agree on after the same request went through
/// two front ends. `data` = false skips the arena (ops whose data effects
/// differ by design); `scalar_b` = the trace flag `b`'s last record carries.
void expect_twins_equal(const Twin& a, const Twin& b, bool data,
                        bool scalar_b, const std::string& what) {
  SCOPED_TRACE(what);
  const KernelRecord& ra = a.rec;
  const KernelRecord& rb = b.rec;
  EXPECT_EQ(ra.requests, rb.requests);
  EXPECT_EQ(ra.sectors, rb.sectors);
  EXPECT_EQ(ra.bytes_load, rb.bytes_load);
  EXPECT_EQ(ra.bytes_store, rb.bytes_store);
  EXPECT_EQ(ra.bytes_atomic, rb.bytes_atomic);
  EXPECT_EQ(ra.bytes_dram, rb.bytes_dram);
  EXPECT_EQ(ra.l1_accesses, rb.l1_accesses);
  EXPECT_EQ(ra.l1_hits, rb.l1_hits);
  EXPECT_EQ(ra.l2_accesses, rb.l2_accesses);
  EXPECT_EQ(ra.l2_hits, rb.l2_hits);
  EXPECT_EQ(ra.atomic_ops, rb.atomic_ops);
  EXPECT_EQ(ra.atomic_stall_cycles, rb.atomic_stall_cycles);
  EXPECT_EQ(a.warp.issue_cycles(), b.warp.issue_cycles());
  EXPECT_EQ(a.warp.mem_cycles(), b.warp.mem_cycles());
  if (data) {
    EXPECT_TRUE(same_bytes(a, b, a.f32, b.f32));
    EXPECT_TRUE(same_bytes(a, b, a.i32, b.i32));
    EXPECT_TRUE(same_bytes(a, b, a.i64, b.i64));
    EXPECT_TRUE(same_bytes(a, b, a.u32, b.u32));
  }
  for (std::uint64_t line = 0; line <= a.u32.addr(1024) >> 7; ++line) {
    ASSERT_EQ(a.sys.l1[0].contains(line << 7), b.sys.l1[0].contains(line << 7))
        << "L1 line " << line;
    ASSERT_EQ(a.sys.l2.contains(line << 7), b.sys.l2.contains(line << 7))
        << "L2 line " << line;
  }
  const auto& ta = a.trace.kernels().back().accesses;
  const auto& tb = b.trace.kernels().back().accesses;
  ASSERT_EQ(ta.size(), tb.size());
  if (ta.empty()) return;
  const TraceAccess& x = ta.back();
  const TraceAccess& y = tb.back();
  EXPECT_EQ(x.warp, y.warp);
  EXPECT_EQ(x.item, y.item);
  EXPECT_EQ(x.site, y.site);
  EXPECT_EQ(x.slot, y.slot);
  EXPECT_EQ(x.kind, y.kind);
  EXPECT_EQ(x.bytes, y.bytes);
  EXPECT_FALSE(x.scalar);
  EXPECT_EQ(y.scalar, scalar_b);
  EXPECT_EQ(x.mask, y.mask);
  EXPECT_EQ(x.addr, y.addr);
}

WVec<std::int64_t> seq_lanes(std::int64_t start, int n) {
  WVec<std::int64_t> idx{};
  for (int l = 0; l < n; ++l) idx[static_cast<std::size_t>(l)] = start + l;
  return idx;
}

// Every one- and two-line span and every sector boundary: n = 1..32 lanes
// from each of 64 start offsets (two lines' worth). Each op runs twice,
// first against cold caches (DRAM), then warm (L1 or, for atomics, L2 hits).
// Guarded memory mode, where the `*_seq` ops replay through the lane walk,
// must agree too.
class SeqMatchesLanePath : public ::testing::TestWithParam<MemoryMode> {};

TEST_P(SeqMatchesLanePath, EverySpan) {
  Twin lane(GetParam());
  Twin seq(GetParam());
  WVec<float> val{};
  for (int l = 0; l < kWarpSize; ++l)
    val[static_cast<std::size_t>(l)] = 0.5f + static_cast<float>(l);
  // op(twin, start, n, use_seq)
  const std::function<void(Twin&, std::int64_t, int, bool)> ops[] = {
      [](Twin& t, std::int64_t start, int n, bool s) {
        const WVec<float> got =
            s ? t.warp.load_f32_seq(t.f32, start, n)
              : t.warp.load_f32(t.f32, seq_lanes(start, n), lanes_below(n));
        for (int l = 0; l < kWarpSize; ++l)
          EXPECT_EQ(got[static_cast<std::size_t>(l)],
                    l < n ? t.sys.mem.view(t.f32)[static_cast<std::size_t>(
                                start + l)]
                          : 0.0f);
      },
      [](Twin& t, std::int64_t start, int n, bool s) {
        const WVec<std::int32_t> got =
            s ? t.warp.load_i32_seq(t.i32, start, n)
              : t.warp.load_i32(t.i32, seq_lanes(start, n), lanes_below(n));
        for (int l = 0; l < kWarpSize; ++l)
          EXPECT_EQ(got[static_cast<std::size_t>(l)],
                    l < n ? 3 * (start + l) : 0);
      },
      [&val](Twin& t, std::int64_t start, int n, bool s) {
        if (s)
          t.warp.store_f32_seq(t.f32, start, val, n);
        else
          t.warp.store_f32(t.f32, seq_lanes(start, n), val, lanes_below(n));
      },
      [&val](Twin& t, std::int64_t start, int n, bool s) {
        if (s)
          t.warp.atomic_add_f32_seq(t.f32, start, val, n);
        else
          t.warp.atomic_add_f32(t.f32, seq_lanes(start, n), val,
                                lanes_below(n));
      },
  };
  const char* const names[] = {"load_f32", "load_i32", "store_f32",
                               "atomic_add_f32"};
  for (std::int64_t start = 0; start < 64; ++start) {
    for (int n = 1; n <= kWarpSize; ++n) {
      for (std::size_t k = 0; k < std::size(ops); ++k) {
        lane.sys.reset_caches();
        seq.sys.reset_caches();
        for (const char* state : {"cold", "warm"}) {
          ops[k](lane, start, n, false);
          ops[k](seq, start, n, true);
          expect_twins_equal(lane, seq, true, false,
                             std::string(names[k]) + " " + state + " start " +
                                 std::to_string(start) + " n " +
                                 std::to_string(n));
          if (HasFailure()) return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FrontEndEquivalence, SeqMatchesLanePath,
                         ::testing::Values(MemoryMode::kFast,
                                           MemoryMode::kGuarded));

// The run ops against the lane walk on the same lanes and indices: every
// stride and run length, four run masks, and four start layouts, cold then
// warm. The layouts put each run on its own row, two runs on one line,
// repeat starts, and make every run of 2+ lanes cross a 128 B line boundary
// with the runs in descending address order. Guarded mode and an attached
// trace replay the run ops through the lane walk; without either the run
// pricer answers. Geometries: the V100 and the sweep's scaled V100, whose
// set counts are not all powers of two, and a one-set 4-way L1 over a
// two-set L2, where probe order decides which lines survive a request of
// five or more lines, so the merged line set must keep first-occurrence
// order.
GpuSpec run_test_geometry(int g) {
  if (g == 0) return GpuSpec::v100();
  if (g == 1) return GpuSpec::v100_scaled(20);
  GpuSpec tiny = GpuSpec::v100();
  tiny.l1_bytes = 4 * 128;
  tiny.l2_bytes = 8 * 128;
  tiny.l2_ways = 4;
  return tiny;
}

class RunsMatchLanePath
    : public ::testing::TestWithParam<std::tuple<MemoryMode, int, bool>> {};

TEST_P(RunsMatchLanePath, EveryStrideMaskAndLayout) {
  const auto [mode, geometry, traced] = GetParam();
  const GpuSpec spec = run_test_geometry(geometry);
  Twin lane(mode, spec, traced);
  Twin run(mode, spec, traced);
  WVec<float> val{};
  for (int l = 0; l < kWarpSize; ++l)
    val[static_cast<std::size_t>(l)] = 1.5f + static_cast<float>(l);
  const char* const layouts[] = {"rows", "shared line", "repeated start",
                                 "crossing"};
  const char* const masks[] = {"all", "single", "alternating", "none"};
  for (int stride = 1; stride <= kWarpSize; stride *= 2) {
    const int k = kWarpSize / stride;  // runs in a warp
    for (int n = 1; n <= stride; ++n) {
      for (int layout = 0; layout < 4; ++layout) {
        WVec<std::int64_t> start{};
        for (int r = 0; r < k; ++r) {
          std::int64_t& s = start[static_cast<std::size_t>(r)];
          switch (layout) {
            case 0: s = (r * 97 + 13) % 900; break;
            case 1: s = 32 * (r / 2) + (r % 2) * 16; break;
            case 2: s = 200 + 24 * (r % 3); break;
            default: s = 32 * (k - r) - (n + 1) / 2;
          }
        }
        for (int mk = 0; mk < 4; ++mk) {
          const Mask runs = mk == 0   ? lanes_below(k)
                            : mk == 1 ? Mask{1} << (k / 2)
                            : mk == 2 ? 0x55555555u & lanes_below(k)
                                      : Mask{0};
          WVec<std::int64_t> idx{};
          Mask m = 0;
          for (int r = 0; r < k; ++r) {
            if (((runs >> r) & 1u) == 0) continue;
            for (int j = 0; j < n; ++j) {
              const auto l = static_cast<std::size_t>(r * stride + j);
              idx[l] = start[static_cast<std::size_t>(r)] + j;
              m |= Mask{1} << l;
            }
          }
          for (const bool store : {false, true}) {
            lane.sys.reset_caches();
            run.sys.reset_caches();
            for (const char* state : {"cold", "warm"}) {
              if (store) {
                lane.warp.store_f32(lane.f32, idx, val, m);
                run.warp.store_f32_runs(run.f32, start, val, runs, stride, n);
              } else {
                const WVec<float> want = lane.warp.load_f32(lane.f32, idx, m);
                const WVec<float> got =
                    run.warp.load_f32_runs(run.f32, start, runs, stride, n);
                EXPECT_EQ(got, want);
              }
              expect_twins_equal(
                  lane, run, true, false,
                  std::string(store ? "store" : "load") + " " + state +
                      " stride " + std::to_string(stride) + " n " +
                      std::to_string(n) + " " + layouts[layout] + " " +
                      masks[mk]);
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(run.rec.requests, 0);
}

INSTANTIATE_TEST_SUITE_P(
    FrontEndEquivalence, RunsMatchLanePath,
    ::testing::Combine(::testing::Values(MemoryMode::kFast,
                                         MemoryMode::kGuarded),
                       ::testing::Values(0, 1, 2), ::testing::Bool()));

// A run that leaves the arena throws, as the `*_seq` ops do: past the bump
// top, and at a negative index, whose address wraps.
TEST(FrontEndEquivalence, OutOfRangeRunThrows) {
  for (const MemoryMode mode : {MemoryMode::kFast, MemoryMode::kGuarded}) {
    Twin t(mode, GpuSpec::v100(), false);
    const DevPtr<float> last{t.u32.byte_offset, t.u32.count};
    WVec<std::int64_t> start{};
    start[1] = 1020;  // elements 1020..1027 of a 1024-element buffer
    EXPECT_THROW((void)t.warp.load_f32_runs(last, start, 0b10u, 8, 8),
                 tlp::InvalidAccess);
    EXPECT_THROW(t.warp.store_f32_runs(last, start, WVec<float>{}, 0b10u, 8, 8),
                 tlp::InvalidAccess);
    start[1] = -8;
    EXPECT_THROW((void)t.warp.load_f32_runs(t.f32, start, 0b10u, 8, 8),
                 tlp::InvalidAccess);
    EXPECT_THROW(t.warp.store_f32_runs(t.f32, start, WVec<float>{}, 0b10u, 8, 8),
                 tlp::InvalidAccess);
    // A shape that names a lane past the warp is refused before any data
    // moves: n above the stride, a run at or above 32/stride, a stride
    // that is not a power of two in [1, 32].
    start[1] = 0;
    for (const auto& [runs, stride, n] :
         {std::tuple{0b10u, 8, 9}, std::tuple{0b10000u, 8, 8},
          std::tuple{0b1u, 3, 3}, std::tuple{0b1u, 64, 1},
          std::tuple{0b1u, 0, 0}}) {
      EXPECT_THROW((void)t.warp.load_f32_runs(t.f32, start, runs, stride, n),
                   tlp::CheckError);
      EXPECT_THROW(
          t.warp.store_f32_runs(t.f32, start, WVec<float>{}, runs, stride, n),
          tlp::CheckError);
    }
    EXPECT_EQ(t.rec.requests, 0);
  }
}

// Each scalar op against the lane call with only lane 0 active; the traces
// differ only in the scalar flag.
TEST(FrontEndEquivalence, ScalarMatchesOneLane) {
  Twin lane;
  Twin one;
  const std::function<void(Twin&, std::int64_t, bool)> ops[] = {
      [](Twin& t, std::int64_t i, bool s) {
        if (s) {
          EXPECT_EQ(t.warp.load_scalar_f32(t.f32, i),
                    0.25f * static_cast<float>(i));
        } else {
          WVec<std::int64_t> idx{};
          idx[0] = i;
          EXPECT_EQ(t.warp.load_f32(t.f32, idx, 0x1u)[0],
                    0.25f * static_cast<float>(i));
        }
      },
      [](Twin& t, std::int64_t i, bool s) {
        WVec<std::int64_t> idx{};
        idx[0] = i;
        EXPECT_EQ(s ? t.warp.load_scalar_i32(t.i32, i)
                    : t.warp.load_i32(t.i32, idx, 0x1u)[0],
                  3 * i);
      },
      [](Twin& t, std::int64_t i, bool s) {
        WVec<std::int64_t> idx{};
        idx[0] = i;
        EXPECT_EQ(s ? t.warp.load_scalar_i64(t.i64, i)
                    : t.warp.load_i64(t.i64, idx, 0x1u)[0],
                  5 * i);
      },
      [](Twin& t, std::int64_t i, bool s) {
        WVec<std::int64_t> idx{};
        idx[0] = i;
        WVec<float> v{};
        v[0] = -1.5f;
        if (s)
          t.warp.store_scalar_f32(t.f32, i, -1.5f);
        else
          t.warp.store_f32(t.f32, idx, v, 0x1u);
      },
  };
  for (std::int64_t i = 0; i < 96; ++i) {
    for (std::size_t k = 0; k < std::size(ops); ++k) {
      if (i % 32 == 0) {
        lane.sys.reset_caches();
        one.sys.reset_caches();
      }
      ops[k](lane, i, false);
      ops[k](one, i, true);
      expect_twins_equal(lane, one, true, true,
                         "op " + std::to_string(k) + " idx " + std::to_string(i));
      if (HasFailure()) return;
    }
  }
  // The u32 fetch-add has no lane twin: it must match a one-lane f32 atomic
  // on the same word. Adding zero leaves both words' bits unchanged.
  WVec<std::int64_t> idx{};
  idx[0] = 7;
  lane.warp.atomic_add_f32(lane.f32, idx, WVec<float>{}, 0x1u);
  const DevPtr<std::uint32_t> alias{one.f32.byte_offset, one.f32.count};
  EXPECT_EQ(one.warp.atomic_add_u32(alias, 7, 0),
            std::bit_cast<std::uint32_t>(lane.sys.mem.view(lane.f32)[7]));
  expect_twins_equal(lane, one, true, true, "atomic_add_u32");
}

// atomic_max prices exactly like atomic_add on the same conflicting
// addresses: in one line and across several lines, full and partial masks.
TEST(FrontEndEquivalence, AtomicMaxPricesLikeAtomicAdd) {
  Twin add;
  Twin max;
  Rng rng(11);
  WVec<float> val{};
  for (int l = 0; l < kWarpSize; ++l)
    val[static_cast<std::size_t>(l)] = static_cast<float>(l % 5);
  for (int rep = 0; rep < 64; ++rep) {
    WVec<std::int64_t> idx{};
    for (int l = 0; l < kWarpSize; ++l) {
      const auto k = static_cast<std::size_t>(l);
      switch (rep % 4) {
        case 0: idx[k] = rep; break;                         // one address
        case 1: idx[k] = (l % 4) * 32 + rep % 8; break;      // 4 lines
        case 2: idx[k] = l % 3 + 2 * (l % 2); break;         // one line
        default:
          idx[k] = static_cast<std::int64_t>(rng.next_below(48));
      }
    }
    const Mask m = rep % 8 < 4 ? kFullMask : 0x0F0F33F1u;
    add.warp.atomic_add_f32(add.f32, idx, val, m);
    max.warp.atomic_max_f32(max.f32, idx, val, m);
    expect_twins_equal(add, max, false, false, "rep " + std::to_string(rep));
    if (HasFailure()) return;
  }
  EXPECT_GT(add.rec.atomic_stall_cycles, 0.0);
}

TEST(LaneHelpers, Masks) {
  EXPECT_EQ(lanes_below(0), 0u);
  EXPECT_EQ(lanes_below(1), 1u);
  EXPECT_EQ(lanes_below(32), kFullMask);
  EXPECT_TRUE(lane_active(0b100, 2));
  EXPECT_FALSE(lane_active(0b100, 1));
}

}  // namespace
}  // namespace tlp::sim
