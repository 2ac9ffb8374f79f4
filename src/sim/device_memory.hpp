// Simulated global-memory arena.
//
// Kernels really read and write this storage — results are later checked
// against a CPU reference — and the arena doubles as the address space for
// the coalescing/cache model (byte addresses are arena offsets). Allocation
// is a bump pointer with live/peak accounting; `peak_bytes()` is the
// "Global mem usage" metric of Table 3.
//
// Storage is kept across reset(): it rewinds the bump pointer without
// touching the bytes, so a device reused run after run (every
// GnnSystem::run resets) does not free, re-allocate and zero-fill its arena
// each time, and the storage stays as large as the largest run so far.
// Allocations still read zero: bump() clears just the bytes it hands out
// that an earlier run dirtied (DESIGN.md §10). Every access, in fast mode
// too, is bounded by the bump top rather than the storage size, since the
// bytes past the top may hold an earlier run's data.
//
// Robustness features (see DESIGN.md "Fault model & memory safety"):
//  - A capacity limit (from GpuSpec::memory_bytes) makes alloc() throw
//    tlp::OutOfMemory instead of growing unboundedly; the limit models a
//    recycling allocator, so it is checked against *live* bytes.
//  - MemoryMode::kGuarded adds redzones between allocations, poison fill on
//    alloc/free, out-of-bounds and use-after-free detection on every kernel
//    load/store/atomic, and a shadow-memory write-race detector that flags
//    two warps storing non-atomically to the same address within a kernel.
//  - A FaultPlan can force the Nth allocation to fail with OutOfMemory so
//    degradation paths are testable without huge workloads.
//
// View invalidation contract: the arena has a logical size that starts at
// 1 MB on the first allocation after construction or reset() and doubles
// until the bump top fits. Every alloc() that grows it, and every reset(),
// invalidates all previously obtained views — also when the kept storage was
// already large enough and nothing moved, so which calls invalidate does not
// depend on what ran before. Views carry the arena generation at creation
// and re-derive their pointer from the arena on each access, so use of a
// stale view fails loudly instead of reading moved storage.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "sim/device_error.hpp"
#include "sim/fault_plan.hpp"

namespace tlp::sim {

class DeviceMemory;
class AccessTrace;
struct AccessSite;

/// Typed handle into device memory. Trivially copyable; the arena outlives
/// all handles it issued.
template <class T>
struct DevPtr {
  std::uint64_t byte_offset = 0;
  std::int64_t count = 0;

  [[nodiscard]] bool is_null() const { return count == 0; }
  [[nodiscard]] std::uint64_t addr(std::int64_t index) const {
    return byte_offset + static_cast<std::uint64_t>(index) * sizeof(T);
  }
};

enum class MemoryMode {
  kFast,     ///< no per-access validation beyond the bump-top bound
  kGuarded,  ///< redzones, poison fill, OOB/UAF checks, write-race detection
};

/// Host view of an allocation. The pointer is re-derived from the arena on
/// every data()/begin()/end()/operator[] call and the arena generation is
/// verified, so holding a view across an alloc() that grew the arena throws
/// CheckError instead of dereferencing a dangling pointer. Use like a span:
///   auto v = mem.view(p);  v[2] = 42;  std::fill(v.begin(), v.end(), 0);
template <class T>
class ArenaView {
  using Mem = std::conditional_t<std::is_const_v<T>, const DeviceMemory,
                                 DeviceMemory>;

 public:
  ArenaView() = default;
  ArenaView(Mem* mem, std::uint64_t byte_offset, std::size_t count,
            std::uint64_t generation)
      : mem_(mem), offset_(byte_offset), count_(count), gen_(generation) {}

  [[nodiscard]] T* data() const;
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] T* begin() const { return data(); }
  [[nodiscard]] T* end() const { return data() + count_; }
  [[nodiscard]] T& operator[](std::size_t i) const { return data()[i]; }

 private:
  Mem* mem_ = nullptr;
  std::uint64_t offset_ = 0;
  std::size_t count_ = 0;
  std::uint64_t gen_ = 0;
};

class DeviceMemory {
 public:
  DeviceMemory() = default;
  explicit DeviceMemory(MemoryMode mode) : mode_(mode) {}

  /// Guarded mode must be selected while the arena is empty (fresh or just
  /// reset): redzone layout cannot be retrofitted onto live allocations.
  void set_mode(MemoryMode mode) {
    TLP_CHECK_MSG(top_ == 0, "set_mode requires an empty arena");
    mode_ = mode;
  }
  [[nodiscard]] MemoryMode mode() const { return mode_; }

  /// Capacity limit in bytes; 0 = unlimited. Checked against live bytes
  /// (the arena recycles storage only on reset(), but a real device
  /// allocator recycles on free, which is what the limit models).
  void set_capacity(std::int64_t bytes) {
    TLP_CHECK_GE(bytes, 0);
    capacity_bytes_ = bytes;
  }
  [[nodiscard]] std::int64_t capacity_bytes() const { return capacity_bytes_; }

  /// Installs a fault plan; only the allocation faults are handled here (the
  /// launch faults live on Device). Plan counters survive reset() so a
  /// degradation retry does not re-trigger a one-shot fault.
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }
  [[nodiscard]] const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Re-arms the allocation faults mid-run: plan counters restart relative
  /// to the current allocation sequence ("the Nth allocation *from now*"),
  /// and a consumed one-shot fault is reset. The serving loop's storm hook.
  void arm_fault_plan(const FaultPlan& plan) {
    fault_plan_ = plan;
    alloc_base_ = alloc_seq_;
    oom_fault_fired_ = false;
  }

  /// Labels subsequent injected-fault errors with the work in flight (e.g.
  /// "req 17 attempt 2"); empty clears. Carried in FaultProvenance::context.
  void set_fault_context(std::string context) {
    fault_context_ = std::move(context);
  }
  [[nodiscard]] const std::string& fault_context() const {
    return fault_context_;
  }

  /// Registers an access trace to receive allocation-lifecycle events
  /// (alloc/free/host view/reset) — the provenance feed for the whole-trace
  /// analysis passes. nullptr detaches. Not owned.
  void attach_trace(AccessTrace* trace) { trace_ = trace; }
  [[nodiscard]] AccessTrace* trace() const { return trace_; }

  /// Allocates `count` elements, 256-byte aligned (cudaMalloc alignment).
  /// Invalidates previously obtained views if the arena grows (detected on
  /// stale-view use). Throws tlp::OutOfMemory when the capacity limit or an
  /// injected allocation fault fires. `site` (from TLP_SITE) labels the
  /// buffer in the attached trace so lifetime diagnostics can name it.
  template <class T>
  DevPtr<T> alloc(std::int64_t count, const AccessSite* site = nullptr) {
    TLP_CHECK_GE(count, 0);
    const std::uint64_t offset = allocate_bytes(
        static_cast<std::uint64_t>(count) * sizeof(T), site);
    return DevPtr<T>{offset, count};
  }

  /// Marks an allocation dead for the live/peak accounting. Storage is not
  /// recycled (bump arena); reset() reclaims everything. In guarded mode the
  /// payload is poisoned and later kernel access throws InvalidAccess.
  template <class T>
  void free(DevPtr<T>& p) {
    release_bytes(p.byte_offset,
                  static_cast<std::uint64_t>(p.count) * sizeof(T));
    p = DevPtr<T>{};
  }

  /// Host view of an allocation. Invalidated by any alloc() that grows the
  /// arena; stale use throws (see ArenaView). A mutable view is the H2D /
  /// fill path, so the attached trace records it as a host write (marking
  /// the range initialized); a const view records as a host read (download).
  template <class T>
  [[nodiscard]] ArenaView<T> view(DevPtr<T> p) {
    note_host_write(p.byte_offset,
                    static_cast<std::uint64_t>(p.count) * sizeof(T));
    return {this, p.byte_offset, static_cast<std::size_t>(p.count),
            generation_};
  }
  template <class T>
  [[nodiscard]] ArenaView<const T> view(DevPtr<T> p) const {
    note_host_read(p.byte_offset,
                   static_cast<std::uint64_t>(p.count) * sizeof(T));
    return {this, p.byte_offset, static_cast<std::size_t>(p.count),
            generation_};
  }

  /// Raw typed access used by the warp context's load/store paths. The arena
  /// bound — the bump top, the end of the last allocation handed out — is
  /// enforced in every build mode (a silent out-of-bounds access would
  /// corrupt a neighbouring buffer, and bytes past the top may hold an
  /// earlier run's data); guarded mode additionally checks that the access
  /// lands inside a single live allocation.
  template <class T>
  [[nodiscard]] T read(std::uint64_t byte_addr) const {
    bounds_check(byte_addr, sizeof(T));
    T out;
    std::memcpy(&out, arena_.data() + byte_addr, sizeof(T));
    return out;
  }
  template <class T>
  void write(std::uint64_t byte_addr, T value) {
    bounds_check(byte_addr, sizeof(T));
    std::memcpy(arena_.data() + byte_addr, &value, sizeof(T));
  }

  /// Bulk transfer of `count` consecutive elements with a single range
  /// bounds check — the warp context's sequential fast path. The range check
  /// subsumes the per-element checks a lane-by-lane loop would make: any
  /// element out of the arena puts the range end out of the arena too.
  template <class T>
  void read_block(std::uint64_t byte_addr, T* out, std::size_t count) const {
    bounds_check(byte_addr, count * sizeof(T));
    std::memcpy(out, arena_.data() + byte_addr, count * sizeof(T));
  }
  template <class T>
  void write_block(std::uint64_t byte_addr, const T* in, std::size_t count) {
    bounds_check(byte_addr, count * sizeof(T));
    std::memcpy(arena_.data() + byte_addr, in, count * sizeof(T));
  }

  /// Host-side cache-warming hint with no simulation effect whatsoever: no
  /// bounds check, no guarded-mode check, no counters, no data movement. The
  /// kernels use it to overlap the host-DRAM latency of the next edge's
  /// scattered feature row with the current edge's model work — the arena is
  /// far larger than the host LLC, so these gather reads are what the whole
  /// simulator waits on. Out-of-range hints are clamped, not faulted
  /// (__builtin_prefetch never traps anyway, but the pointer arithmetic must
  /// stay in range).
  void host_prefetch(std::uint64_t byte_addr, std::size_t bytes) const {
    if (byte_addr >= top_) return;
    const std::byte* p = arena_.data() + byte_addr;
    const std::byte* end =
        arena_.data() + std::min<std::uint64_t>(top_, byte_addr + bytes);
    for (; p < end; p += 64) __builtin_prefetch(p, 0, 1);
  }

  // --- guarded-mode kernel context ----------------------------------------
  /// Called by the scheduler around each kernel: names the kernel for error
  /// messages and clears the per-kernel write-race shadow map.
  void begin_kernel(const std::string& name);
  void end_kernel();

  /// Guarded-mode hook called by WarpCtx for every store/atomic lane: feeds
  /// the write-race shadow map. `warp` identifies the storing warp; stores
  /// from different warps to one address are a race unless both are atomic.
  void note_store(std::uint64_t byte_addr, int bytes, std::int64_t warp,
                  bool atomic);

  // --- fault-injection support ---------------------------------------------
  struct AllocationRecord {
    std::uint64_t offset = 0;  ///< payload start
    std::uint64_t bytes = 0;   ///< payload size
    bool live = false;
  };
  [[nodiscard]] const std::vector<AllocationRecord>& allocations() const {
    return allocs_;
  }
  /// Total allocations made over this arena's lifetime (fault-plan cursor).
  [[nodiscard]] std::int64_t alloc_count() const { return alloc_seq_; }
  /// Flips one bit, bypassing guards — the ECC-corruption injection point.
  void flip_bit(std::uint64_t byte_addr, int bit);

  [[nodiscard]] std::int64_t live_bytes() const { return live_bytes_; }
  [[nodiscard]] std::int64_t peak_bytes() const { return peak_bytes_; }

  /// Arena growth/reset counter backing stale-view detection.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Releases every allocation and clears peak accounting without touching
  /// the storage, which the next run reuses. Fault-plan progress is kept
  /// (one-shot faults stay consumed across degradation retries).
  void reset();

 private:
  template <class U>
  friend class ArenaView;

  [[nodiscard]] std::byte* arena_ptr() { return arena_.data(); }
  [[nodiscard]] const std::byte* arena_ptr() const { return arena_.data(); }

  std::uint64_t allocate_bytes(std::uint64_t bytes, const AccessSite* site);
  void release_bytes(std::uint64_t offset, std::uint64_t bytes);
  std::uint64_t bump(std::uint64_t bytes);

  // Trace hooks (out of line so the header need not see AccessTrace). The
  // host-view hooks fire from const methods; the trace is an external
  // observer, not part of this object's logical state.
  void note_host_write(std::uint64_t offset, std::uint64_t bytes) const;
  void note_host_read(std::uint64_t offset, std::uint64_t bytes) const;

  void bounds_check(std::uint64_t byte_addr, std::size_t bytes) const {
    if (byte_addr + bytes > top_) {
      fail_access(byte_addr, bytes, "outside the device arena");
    }
    if (mode_ == MemoryMode::kGuarded) guarded_check(byte_addr, bytes);
  }
  void guarded_check(std::uint64_t byte_addr, std::size_t bytes) const;
  [[noreturn]] void fail_access(std::uint64_t byte_addr, std::size_t bytes,
                                const char* what) const;
  /// Allocation containing `addr`, or nullptr. Allocations are offset-sorted
  /// (bump arena), so this is a binary search.
  [[nodiscard]] const AllocationRecord* find_allocation(
      std::uint64_t addr) const;

  std::vector<std::byte> arena_;  ///< storage; kept across reset()
  std::uint64_t size_ = 0;        ///< logical arena size (1 MB doubling)
  std::uint64_t top_ = 0;         ///< bump pointer: end of the last handout
  /// Bytes [0, dirty_) may hold data from before the last reset(); bump()
  /// zeroes its handouts below this mark.
  std::uint64_t dirty_ = 0;
  std::int64_t live_bytes_ = 0;
  std::int64_t peak_bytes_ = 0;
  std::int64_t capacity_bytes_ = 0;
  std::uint64_t generation_ = 0;
  MemoryMode mode_ = MemoryMode::kFast;

  std::vector<AllocationRecord> allocs_;

  AccessTrace* trace_ = nullptr;

  FaultPlan fault_plan_{};
  std::int64_t alloc_seq_ = 0;
  /// Allocation count at the last arm_fault_plan(); plan counters are
  /// evaluated against (alloc_seq_ - alloc_base_).
  std::int64_t alloc_base_ = 0;
  bool oom_fault_fired_ = false;
  std::string fault_context_;

  // Guarded-mode kernel context: current kernel name plus the write shadow
  // map (address -> last non-host writer) cleared per kernel.
  std::string kernel_name_;
  struct ShadowWrite {
    std::int64_t warp = -1;
    bool atomic = false;
  };
  std::unordered_map<std::uint64_t, ShadowWrite> write_shadow_;
};

template <class T>
T* ArenaView<T>::data() const {
  TLP_CHECK_MSG(mem_ != nullptr, "empty ArenaView dereferenced");
  TLP_CHECK_MSG(gen_ == mem_->generation(),
                "stale device-memory view used: the arena was reallocated "
                "(generation " << gen_ << " vs " << mem_->generation()
                << ") — re-acquire the view after alloc()");
  using Byte =
      std::conditional_t<std::is_const_v<T>, const std::byte, std::byte>;
  Byte* base = mem_->arena_ptr();
  return reinterpret_cast<T*>(base + offset_);
}

}  // namespace tlp::sim
