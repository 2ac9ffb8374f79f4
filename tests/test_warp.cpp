// Tests for the warp-level memory model: coalescing (sector counting),
// cache-aware traffic accounting, atomic conflict serialization, and the
// warp collectives.
#include <gtest/gtest.h>

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

TEST(LaneHelpers, Masks) {
  EXPECT_EQ(lanes_below(0), 0u);
  EXPECT_EQ(lanes_below(1), 1u);
  EXPECT_EQ(lanes_below(32), kFullMask);
  EXPECT_TRUE(lane_active(0b100, 2));
  EXPECT_FALSE(lane_active(0b100, 1));
}

}  // namespace
}  // namespace tlp::sim
