// Tests for the simulated device-memory arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/device_memory.hpp"

namespace tlp::sim {
namespace {

/// End of the last allocation: the bump top in fast mode.
std::uint64_t arena_top(const DeviceMemory& mem) {
  const auto& allocs = mem.allocations();
  return allocs.empty() ? 0 : allocs.back().offset + allocs.back().bytes;
}

/// Makes allocations of the given byte sizes (odd sizes leave alignment
/// padding between them) and overwrites every byte up to the bump top,
/// padding included, with 0xFF — a run that dirties its whole arena.
void dirty_run(DeviceMemory& mem, const std::vector<std::int64_t>& sizes) {
  for (const std::int64_t n : sizes) (void)mem.alloc<std::byte>(n);
  const std::vector<std::byte> ones(arena_top(mem), std::byte{0xFF});
  mem.write_block(0, ones.data(), ones.size());
}

/// Every byte up to the bump top reads zero.
bool arena_reads_zero(const DeviceMemory& mem) {
  std::vector<std::byte> bytes(arena_top(mem), std::byte{0x5A});
  mem.read_block(0, bytes.data(), bytes.size());
  return std::all_of(bytes.begin(), bytes.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

TEST(DeviceMemory, AllocAligned) {
  DeviceMemory mem;
  const auto a = mem.alloc<float>(3);
  const auto b = mem.alloc<float>(5);
  EXPECT_EQ(a.byte_offset % 256, 0u);
  EXPECT_EQ(b.byte_offset % 256, 0u);
  EXPECT_NE(a.byte_offset, b.byte_offset);
}

TEST(DeviceMemory, ReadWriteRoundTrip) {
  DeviceMemory mem;
  const auto p = mem.alloc<float>(10);
  mem.write<float>(p.addr(7), 3.25f);
  EXPECT_FLOAT_EQ(mem.read<float>(p.addr(7)), 3.25f);
}

TEST(DeviceMemory, ViewsSeeWrites) {
  DeviceMemory mem;
  const auto p = mem.alloc<std::int32_t>(4);
  auto v = mem.view(p);
  v[2] = 42;
  EXPECT_EQ(mem.read<std::int32_t>(p.addr(2)), 42);
}

TEST(DeviceMemory, LiveAndPeakAccounting) {
  DeviceMemory mem;
  auto a = mem.alloc<float>(100);  // 400 B
  EXPECT_EQ(mem.live_bytes(), 400);
  auto b = mem.alloc<float>(50);  // +200 B
  EXPECT_EQ(mem.live_bytes(), 600);
  EXPECT_EQ(mem.peak_bytes(), 600);
  mem.free(a);
  EXPECT_EQ(mem.live_bytes(), 200);
  EXPECT_EQ(mem.peak_bytes(), 600);  // peak is sticky
  mem.free(b);
  EXPECT_EQ(mem.live_bytes(), 0);
}

TEST(DeviceMemory, FreeNullsHandle) {
  DeviceMemory mem;
  auto p = mem.alloc<float>(8);
  mem.free(p);
  EXPECT_TRUE(p.is_null());
}

TEST(DeviceMemory, ResetClearsEverything) {
  DeviceMemory mem;
  (void)mem.alloc<float>(1000);
  mem.reset();
  EXPECT_EQ(mem.live_bytes(), 0);
  EXPECT_EQ(mem.peak_bytes(), 0);
  const auto p = mem.alloc<float>(1);
  EXPECT_EQ(p.byte_offset, 0u);
}

// reset() keeps the storage, so an allocation after it may land on bytes an
// earlier run wrote; it must still read zero, alignment padding included,
// whether the earlier run was larger (big -> small) or the arena grows back
// over bytes only an earlier run reached (small -> big).
TEST(DeviceMemory, AllocationsAfterResetReadZero) {
  DeviceMemory mem;
  const std::vector<std::int64_t> big = {3, 1000, (3 << 20) + 5, 17, 4096};
  const std::vector<std::int64_t> small = {5, 301, 77};
  dirty_run(mem, big);
  for (const auto* sizes : {&small, &big}) {
    mem.reset();
    for (const std::int64_t n : *sizes) (void)mem.alloc<std::byte>(n);
    EXPECT_GT(arena_top(mem), 0u);
    EXPECT_TRUE(arena_reads_zero(mem));
    dirty_run(mem, {});  // this run dirties its (smaller) arena too
  }
}

// Stale-view detection depends on generation(), which must advance at the
// same alloc() calls on a reused arena — even where its kept storage
// already fits and nothing moves — as on a fresh one.
TEST(DeviceMemory, GenerationAdvancesAsOnAFreshArena) {
  const std::vector<std::int64_t> sizes = {
      100, 1 << 19, 1 << 19, 5, 1 << 20, 3 << 20, 64, 9 << 20, 1};
  DeviceMemory reused;
  dirty_run(reused, {20 << 20});
  reused.reset();
  DeviceMemory fresh;
  for (const std::int64_t n : sizes) {
    const std::uint64_t r0 = reused.generation(), f0 = fresh.generation();
    (void)reused.alloc<std::byte>(n);
    (void)fresh.alloc<std::byte>(n);
    EXPECT_EQ(reused.generation() - r0, fresh.generation() - f0)
        << "alloc of " << n << " B";
  }
}

// Fast mode bounds accesses by the bump top, not by the storage kept from a
// larger earlier run.
TEST(DeviceMemory, FastAccessAtBumpTopThrows) {
  DeviceMemory mem;
  dirty_run(mem, {1 << 20});
  mem.reset();
  const auto p = mem.alloc<float>(3);
  EXPECT_NO_THROW((void)mem.read<float>(p.addr(2)));
  EXPECT_THROW((void)mem.read<float>(p.addr(3)), tlp::InvalidAccess);
  EXPECT_THROW(mem.write<float>(p.addr(3), 1.0f), tlp::InvalidAccess);
  float buf[4];
  EXPECT_THROW(mem.read_block(p.addr(0), buf, 4), tlp::InvalidAccess);
}

// Guarded mode's poison fill, redzones and use-after-free detection do not
// depend on what an earlier run left in the kept storage.
TEST(DeviceMemory, GuardedChecksHoldAfterReset) {
  DeviceMemory mem(MemoryMode::kGuarded);
  for (int run = 0; run < 2; ++run) {
    auto p = mem.alloc<std::uint32_t>(64);
    auto q = mem.alloc<std::uint32_t>(4);
    EXPECT_EQ(mem.read<std::uint32_t>(p.addr(63)), 0xCDCDCDCDu);
    EXPECT_EQ(mem.read<std::uint32_t>(q.addr(0)), 0xCDCDCDCDu);
    EXPECT_THROW((void)mem.read<std::uint32_t>(p.addr(64)),
                 tlp::InvalidAccess);  // redzone
    auto v = mem.view(p);
    std::fill(v.begin(), v.end(), 0u);
    const auto addr = p.addr(0);
    mem.free(p);
    EXPECT_THROW((void)mem.read<std::uint32_t>(addr), tlp::InvalidAccess);
    mem.reset();
  }
}

TEST(DeviceMemory, LargeAllocationGrows) {
  DeviceMemory mem;
  const auto p = mem.alloc<float>(1 << 22);  // 16 MB
  mem.write<float>(p.addr((1 << 22) - 1), 1.0f);
  EXPECT_FLOAT_EQ(mem.read<float>(p.addr((1 << 22) - 1)), 1.0f);
}

TEST(DevPtr, AddrArithmetic) {
  const DevPtr<std::int64_t> p{1024, 10};
  EXPECT_EQ(p.addr(0), 1024u);
  EXPECT_EQ(p.addr(3), 1024u + 24u);
}

TEST(DeviceMemory, CapacityLimitThrowsOutOfMemory) {
  DeviceMemory mem;
  mem.set_capacity(1024);
  auto a = mem.alloc<float>(128);  // 512 B, fits
  try {
    (void)mem.alloc<float>(256);  // 1024 B more would exceed the limit
    FAIL() << "expected OutOfMemory";
  } catch (const tlp::OutOfMemory& e) {
    EXPECT_EQ(e.requested_bytes, 1024);
    EXPECT_EQ(e.live_bytes, 512);
    EXPECT_EQ(e.capacity_bytes, 1024);
  }
  // The limit models a recycling allocator: freeing makes room again.
  mem.free(a);
  EXPECT_NO_THROW((void)mem.alloc<float>(256));
}

TEST(DeviceMemory, InjectedOomIsOneShot) {
  DeviceMemory mem;
  mem.set_fault_plan({.oom_at_alloc = 2});
  EXPECT_NO_THROW((void)mem.alloc<float>(8));
  EXPECT_THROW((void)mem.alloc<float>(8), tlp::OutOfMemory);
  EXPECT_NO_THROW((void)mem.alloc<float>(8));  // fault already consumed
  mem.reset();
  // The consumed fault stays consumed across reset() (degradation retries).
  EXPECT_NO_THROW((void)mem.alloc<float>(8));
}

TEST(DeviceMemory, GuardedCatchesOutOfBoundsAccess) {
  DeviceMemory mem(MemoryMode::kGuarded);
  const auto p = mem.alloc<float>(4);
  EXPECT_NO_THROW((void)mem.read<float>(p.addr(3)));
  EXPECT_THROW((void)mem.read<float>(p.addr(4)), tlp::InvalidAccess);
  EXPECT_THROW(mem.write<float>(p.addr(4), 1.0f), tlp::InvalidAccess);
}

TEST(DeviceMemory, GuardedCatchesStraddlingAccess) {
  DeviceMemory mem(MemoryMode::kGuarded);
  const auto p = mem.alloc<std::uint8_t>(6);
  // A 4-byte read at offset 4 covers bytes [4, 8) of a 6-byte buffer.
  EXPECT_THROW((void)mem.read<std::uint32_t>(p.addr(4)), tlp::InvalidAccess);
}

TEST(DeviceMemory, GuardedCatchesUseAfterFree) {
  DeviceMemory mem(MemoryMode::kGuarded);
  auto p = mem.alloc<float>(8);
  const auto addr = p.addr(0);
  mem.write<float>(addr, 1.0f);
  mem.free(p);
  EXPECT_THROW((void)mem.read<float>(addr), tlp::InvalidAccess);
}

TEST(DeviceMemory, GuardedPoisonsFreshAllocations) {
  DeviceMemory mem(MemoryMode::kGuarded);
  const auto p = mem.alloc<std::uint32_t>(2);
  EXPECT_EQ(mem.read<std::uint32_t>(p.addr(0)), 0xCDCDCDCDu);
}

TEST(DeviceMemory, DoubleFreeThrows) {
  DeviceMemory mem;
  auto p = mem.alloc<float>(8);
  const DevPtr<float> copy = p;
  mem.free(p);
  auto stale = copy;
  EXPECT_THROW(mem.free(stale), tlp::CheckError);
}

TEST(DeviceMemory, FreeOfUnknownAddressThrows) {
  DeviceMemory mem;
  (void)mem.alloc<float>(8);
  DevPtr<float> bogus{64, 8};  // never returned by alloc()
  EXPECT_THROW(mem.free(bogus), tlp::CheckError);
}

TEST(DeviceMemory, StaleViewDetectedAfterArenaGrowth) {
  DeviceMemory mem;
  const auto p = mem.alloc<std::int32_t>(4);
  auto v = mem.view(p);
  v[0] = 7;  // fresh view works
  (void)mem.alloc<std::byte>(4 << 20);  // forces the arena to grow and move
  EXPECT_THROW((void)v[0], tlp::CheckError);
  auto fresh = mem.view(p);  // re-acquired views see the data at its new home
  EXPECT_EQ(fresh[0], 7);
}

TEST(DeviceMemory, WriteRaceDetectedAtSharedAddress) {
  DeviceMemory mem(MemoryMode::kGuarded);
  const auto p = mem.alloc<float>(4);
  mem.begin_kernel("push");
  mem.note_store(p.addr(0), 4, /*warp=*/0, /*atomic=*/false);
  // Same warp again: not a race.
  EXPECT_NO_THROW(mem.note_store(p.addr(0), 4, 0, false));
  try {
    mem.note_store(p.addr(0), 4, /*warp=*/1, /*atomic=*/false);
    FAIL() << "expected WriteRace";
  } catch (const tlp::WriteRace& e) {
    EXPECT_EQ(e.kernel, "push");
    EXPECT_EQ(e.byte_addr, p.addr(0));
    EXPECT_EQ(e.warp_a, 0);
    EXPECT_EQ(e.warp_b, 1);
  }
  mem.end_kernel();
}

TEST(DeviceMemory, AtomicStoresFromDifferentWarpsAreNotARace) {
  DeviceMemory mem(MemoryMode::kGuarded);
  const auto p = mem.alloc<float>(4);
  mem.begin_kernel("reduce");
  EXPECT_NO_THROW(mem.note_store(p.addr(0), 4, 0, /*atomic=*/true));
  EXPECT_NO_THROW(mem.note_store(p.addr(0), 4, 1, /*atomic=*/true));
  // Atomic then plain from another warp is still a race.
  EXPECT_THROW(mem.note_store(p.addr(0), 4, 2, /*atomic=*/false),
               tlp::WriteRace);
  mem.end_kernel();
}

TEST(DeviceMemory, ShadowMapClearsBetweenKernels) {
  DeviceMemory mem(MemoryMode::kGuarded);
  const auto p = mem.alloc<float>(4);
  mem.begin_kernel("a");
  mem.note_store(p.addr(0), 4, 0, false);
  mem.end_kernel();
  mem.begin_kernel("b");
  // A different warp storing in a *different kernel* is fine.
  EXPECT_NO_THROW(mem.note_store(p.addr(0), 4, 1, false));
  mem.end_kernel();
}

TEST(DeviceMemory, FlipBitCorruptsStoredValue) {
  DeviceMemory mem;
  const auto p = mem.alloc<std::uint32_t>(1);
  mem.write<std::uint32_t>(p.addr(0), 0u);
  mem.flip_bit(p.addr(0), 5);
  EXPECT_EQ(mem.read<std::uint32_t>(p.addr(0)), 1u << 5);
  mem.flip_bit(p.addr(0), 5);  // flipping twice restores the value
  EXPECT_EQ(mem.read<std::uint32_t>(p.addr(0)), 0u);
}

TEST(CheckMacros, ComparisonMacrosPrintBothOperands) {
  try {
    const int rows = 3, cols = 7;
    TLP_CHECK_EQ(rows, cols);
    FAIL() << "expected CheckError";
  } catch (const tlp::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rows == cols"), std::string::npos);
    EXPECT_NE(what.find('3'), std::string::npos);
    EXPECT_NE(what.find('7'), std::string::npos);
  }
}

}  // namespace
}  // namespace tlp::sim
