// Tests for the discrete-event kernel scheduler: every assignment policy
// processes each item exactly once, and the timing model responds to
// imbalance, occupancy, and throughput floors the way the paper's machine
// does.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/gather_pull.hpp"
#include "sim/device.hpp"
#include "sim/scheduler.hpp"
#include "tensor/tensor.hpp"

namespace tlp::sim {
namespace {

/// Marks processed items in device memory and charges a per-item cost.
class CountingKernel final : public WarpKernel {
 public:
  CountingKernel(MemorySystem& sys, std::int64_t n,
                 std::vector<double> costs = {})
      : n_(n), costs_(std::move(costs)) {
    marks_ = sys.mem.alloc<std::uint32_t>(n);
    auto v = sys.mem.view(marks_);
    std::fill(v.begin(), v.end(), 0u);
    sys_ = &sys;
  }

  [[nodiscard]] std::int64_t num_items() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "counting"; }

  void run_item(WarpCtx& warp, std::int64_t item) override {
    (void)warp.atomic_add_u32(marks_, item, 1);
    const double cost =
        costs_.empty() ? 10.0 : costs_[static_cast<std::size_t>(item)];
    warp.charge_alu(static_cast<int>(cost));
  }

  [[nodiscard]] std::vector<std::uint32_t> marks() const {
    auto v = sys_->mem.view(marks_);
    return {v.begin(), v.end()};
  }

 private:
  std::int64_t n_;
  std::vector<double> costs_;
  DevPtr<std::uint32_t> marks_;
  MemorySystem* sys_ = nullptr;
};

class SchedulerTest : public ::testing::TestWithParam<Assignment> {};

TEST_P(SchedulerTest, EveryItemProcessedExactlyOnce) {
  MemorySystem sys(GpuSpec::v100());
  CountingKernel k(sys, 10'000);
  LaunchConfig cfg;
  cfg.assignment = GetParam();
  KernelRecord rec;
  run_kernel(sys, k, cfg, rec);
  for (const auto m : k.marks()) EXPECT_EQ(m, 1u);
  EXPECT_GT(rec.elapsed_cycles, 0.0);
  EXPECT_GT(rec.warps, 0);
}

TEST_P(SchedulerTest, EmptyKernelOnlyLaunchOverhead) {
  MemorySystem sys(GpuSpec::v100());
  CountingKernel k(sys, 0);
  LaunchConfig cfg;
  cfg.assignment = GetParam();
  KernelRecord rec;
  run_kernel(sys, k, cfg, rec);
  EXPECT_EQ(rec.elapsed_cycles, 0.0);
  EXPECT_GT(rec.launch_overhead_us, 0.0);
}

TEST_P(SchedulerTest, OccupancyWithinBounds) {
  MemorySystem sys(GpuSpec::v100());
  CountingKernel k(sys, 50'000);
  LaunchConfig cfg;
  cfg.assignment = GetParam();
  KernelRecord rec;
  run_kernel(sys, k, cfg, rec);
  const auto& spec = sys.spec;
  const double occupancy = rec.resident_warp_integral /
                           (rec.elapsed_cycles * spec.num_sms * spec.warps_per_sm);
  EXPECT_GT(occupancy, 0.0);
  EXPECT_LE(occupancy, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllAssignments, SchedulerTest,
                         ::testing::Values(Assignment::kHardwareDynamic,
                                           Assignment::kStaticChunk,
                                           Assignment::kSoftwarePool),
                         [](const auto& suite_info) {
                           switch (suite_info.param) {
                             case Assignment::kHardwareDynamic:
                               return "hardware";
                             case Assignment::kStaticChunk:
                               return "static";
                             case Assignment::kSoftwarePool:
                               return "software";
                           }
                           return "?";
                         });

TEST(Scheduler, ImbalanceStretchesStaticButNotPool) {
  // A contiguous region of 1000x-heavier items lands entirely inside a few
  // static chunks, while the pool spreads it across every free warp.
  const std::int64_t n = 20'000;
  std::vector<double> costs(static_cast<std::size_t>(n), 4.0);
  for (std::size_t i = 0; i < 400; ++i) costs[i] = 4000.0;

  auto run = [&](Assignment a, int pool_step) {
    MemorySystem sys(GpuSpec::v100());
    CountingKernel k(sys, n, costs);
    LaunchConfig cfg;
    cfg.assignment = a;
    cfg.pool_step = pool_step;
    cfg.grid_blocks = 10;  // constrain the warp budget so balance matters
    KernelRecord rec;
    run_kernel(sys, k, cfg, rec);
    return rec.elapsed_cycles;
  };

  const double pool = run(Assignment::kSoftwarePool, 4);
  const double stat = run(Assignment::kStaticChunk, 4);
  EXPECT_LT(pool, stat);
}

TEST(Scheduler, MoreWarpsPerBlockMeansFewerBlocks) {
  MemorySystem sys(GpuSpec::v100());
  CountingKernel k(sys, 1000);
  LaunchConfig cfg;
  cfg.warps_per_block = 4;
  KernelRecord rec4;
  run_kernel(sys, k, cfg, rec4);
  EXPECT_EQ(rec4.blocks, 250);

  CountingKernel k2(sys, 1000);
  cfg.warps_per_block = 16;
  KernelRecord rec16;
  run_kernel(sys, k2, cfg, rec16);
  EXPECT_EQ(rec16.blocks, 63);
}

TEST(Scheduler, ResidentBlocksHonorsThreadSlotLimit) {
  // Regression test: the thread-slot bound divides by warp_size *
  // warps_per_block (threads per block), not by warps_per_block alone. A
  // spec with 1024 thread slots and 8-warp blocks (256 threads each) fits
  // exactly 4 blocks — the warp bound (64/8 = 8) and the hardware slot
  // bound (32) must both lose to it.
  GpuSpec spec = GpuSpec::v100();
  spec.max_threads_per_sm = 1024;
  EXPECT_EQ(resident_blocks_per_sm(spec, 8), 4);
  // With the full 2048 thread slots the warp bound binds instead.
  EXPECT_EQ(resident_blocks_per_sm(GpuSpec::v100(), 8), 8);
  // Degenerate: blocks bigger than every limit still get one slot.
  spec.max_threads_per_sm = 64;
  EXPECT_EQ(resident_blocks_per_sm(spec, 32), 1);
}

TEST(Scheduler, DispatchOverheadGrowsWithBlockCount) {
  // Same tiny work split into 1-warp blocks vs 16-warp blocks: the 1-warp
  // variant dispatches 16x the blocks and pays for it.
  auto run = [&](int wpb) {
    MemorySystem sys(GpuSpec::v100());
    CountingKernel k(sys, 100'000);
    LaunchConfig cfg;
    cfg.warps_per_block = wpb;
    KernelRecord rec;
    run_kernel(sys, k, cfg, rec);
    return rec.elapsed_cycles;
  };
  EXPECT_GT(run(1), run(16));
}

TEST(Scheduler, SoftwarePoolGridOverrideLimitsWarps) {
  MemorySystem sys(GpuSpec::v100());
  CountingKernel k(sys, 5'000);
  LaunchConfig cfg;
  cfg.assignment = Assignment::kSoftwarePool;
  cfg.grid_blocks = 2;
  cfg.warps_per_block = 16;
  KernelRecord rec;
  run_kernel(sys, k, cfg, rec);
  EXPECT_EQ(rec.warps, 32);
  for (const auto m : k.marks()) EXPECT_EQ(m, 1u);
}

TEST(Scheduler, ThreadScalingReducesElapsed) {
  // Figure 11's premise: more blocks -> faster, roughly linearly at first.
  auto run = [&](int blocks) {
    MemorySystem sys(GpuSpec::v100());
    CountingKernel k(sys, 200'000);
    LaunchConfig cfg;
    cfg.assignment = Assignment::kSoftwarePool;
    cfg.grid_blocks = blocks;
    KernelRecord rec;
    run_kernel(sys, k, cfg, rec);
    return rec.elapsed_cycles;
  };
  const double t1 = run(1);
  const double t8 = run(8);
  const double t64 = run(64);
  EXPECT_GT(t1, 4.0 * t8);
  EXPECT_GT(t8, 2.0 * t64);
}

/// Every KernelRecord field perfbench's sim digest folds.
void expect_same_record(const KernelRecord& a, const KernelRecord& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.warps_per_block, b.warps_per_block);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles);
  EXPECT_EQ(a.atomic_stall_cycles, b.atomic_stall_cycles);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.sectors, b.sectors);
  EXPECT_EQ(a.bytes_load, b.bytes_load);
  EXPECT_EQ(a.bytes_store, b.bytes_store);
  EXPECT_EQ(a.bytes_atomic, b.bytes_atomic);
  EXPECT_EQ(a.bytes_dram, b.bytes_dram);
  EXPECT_EQ(a.l1_accesses, b.l1_accesses);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.l2_accesses, b.l2_accesses);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.resident_warp_integral, b.resident_warp_integral);
  EXPECT_EQ(a.launch_overhead_us, b.launch_overhead_us);
}

/// Hardware dynamic is static chunking with one item per warp: a static
/// grid of ceil(n / wpb) blocks gives every item its own warp, so both
/// policies must produce the same record and the same output bits.
LaunchConfig one_item_per_warp(Assignment a, std::int64_t n, int wpb) {
  LaunchConfig cfg;
  cfg.assignment = a;
  cfg.warps_per_block = wpb;
  if (a == Assignment::kStaticChunk)
    cfg.grid_blocks = static_cast<int>((n + wpb - 1) / wpb);
  return cfg;
}

TEST(Scheduler, HardwareDynamicIsStaticChunkOfOneItem) {
  // 1001 items: not a multiple of 3 or 16, so every width has a short tail
  // block.
  const std::int64_t n = 1001;
  std::vector<double> costs(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < costs.size(); ++i)
    costs[i] = i % 97 == 0 ? 3000.0 : static_cast<double>(4 + (i * 37) % 200);
  for (const int wpb : {1, 3, 16}) {
    SCOPED_TRACE("wpb=" + std::to_string(wpb));
    KernelRecord recs[2];
    std::vector<std::uint32_t> marks[2];
    int i = 0;
    for (const Assignment a :
         {Assignment::kHardwareDynamic, Assignment::kStaticChunk}) {
      MemorySystem sys(GpuSpec::v100());
      CountingKernel k(sys, n, costs);
      run_kernel(sys, k, one_item_per_warp(a, n, wpb), recs[i]);
      marks[i++] = k.marks();
    }
    expect_same_record(recs[0], recs[1]);
    EXPECT_EQ(recs[0].warps, n);
    EXPECT_EQ(marks[0], marks[1]);
  }
}

TEST(Scheduler, HardwareDynamicIsStaticChunkOfOneItemForGcn) {
  Rng gen(5);
  const graph::Csr g = graph::power_law(1001, 8000, 2.1, gen);
  const tensor::Tensor h = tensor::Tensor::random(g.num_vertices(), 40, gen);
  const std::int64_t n = g.num_vertices();
  for (const int wpb : {1, 3, 16}) {
    SCOPED_TRACE("wpb=" + std::to_string(wpb));
    KernelRecord recs[2];
    std::vector<std::uint32_t> bits[2];
    int i = 0;
    for (const Assignment a :
         {Assignment::kHardwareDynamic, Assignment::kStaticChunk}) {
      Device dev;
      const kernels::DeviceGraph dg = kernels::upload_graph(dev, g);
      const DevPtr<float> dfeat = kernels::upload_features(dev, h);
      const DevPtr<float> dout = dev.alloc_zeroed<float>(n * h.cols());
      kernels::GatherPullKernel k(dg, dfeat, dout, h.cols(),
                                  {models::ModelKind::kGcn, 0.0f});
      recs[i] = dev.launch(k, one_item_per_warp(a, n, wpb));
      for (const float x : dev.download(dout))
        bits[i].push_back(std::bit_cast<std::uint32_t>(x));
      ++i;
    }
    expect_same_record(recs[0], recs[1]);
    EXPECT_EQ(recs[0].warps, n);
    EXPECT_GT(recs[0].requests, 0);
    EXPECT_EQ(bits[0], bits[1]);
  }
}

TEST(Scheduler, RecordRestoredAfterRun) {
  MemorySystem sys(GpuSpec::v100());
  EXPECT_EQ(sys.rec, nullptr);
  CountingKernel k(sys, 10);
  KernelRecord rec;
  run_kernel(sys, k, {}, rec);
  EXPECT_EQ(sys.rec, nullptr);
}

TEST(Scheduler, RejectsOversizedBlocks) {
  MemorySystem sys(GpuSpec::v100());
  CountingKernel k(sys, 10);
  LaunchConfig cfg;
  cfg.warps_per_block = 64;  // 2048 threads > 1024 max
  KernelRecord rec;
  EXPECT_THROW(run_kernel(sys, k, cfg, rec), tlp::CheckError);
}

}  // namespace
}  // namespace tlp::sim
