#include "sim/device_memory.hpp"

#include <cstring>
#include <sstream>

#include "sim/trace.hpp"

namespace tlp::sim {

namespace {

// Poison patterns, picked to be recognizable in a debugger and to produce
// loud NaN-ish garbage if ever interpreted as float data.
constexpr std::byte kUninitPoison{0xCD};  ///< fresh allocation payload
constexpr std::byte kFreedPoison{0xDD};   ///< freed allocation payload
constexpr std::byte kRedzonePoison{0xA5};  ///< inter-allocation redzones

/// Redzone width appended after each guarded allocation. One full alignment
/// unit, so the next allocation never abuts the previous payload.
constexpr std::uint64_t kRedzoneBytes = 256;

}  // namespace

std::uint64_t DeviceMemory::bump(std::uint64_t bytes) {
  constexpr std::uint64_t kAlign = 256;
  const std::uint64_t start = top_;
  const std::uint64_t offset = (top_ + kAlign - 1) / kAlign * kAlign;
  top_ = offset + bytes;
  if (top_ > size_) {
    // Grow geometrically. The storage moves only when it is smaller than the
    // new size, but every growth invalidates outstanding views — the
    // generation bump makes stale use detectable at the same calls either
    // way.
    std::uint64_t cap = size_ == 0 ? (1u << 20) : size_;
    while (cap < top_) cap *= 2;
    size_ = cap;
    if (size_ > arena_.size()) arena_.resize(size_);
    ++generation_;
  }
  // The handout, alignment padding included, must read zero.
  if (start < dirty_) {
    std::memset(arena_.data() + start, 0, std::min(top_, dirty_) - start);
  }
  return offset;
}

std::uint64_t DeviceMemory::allocate_bytes(std::uint64_t bytes,
                                           const AccessSite* site) {
  ++alloc_seq_;
  const std::int64_t seq = alloc_seq_ - alloc_base_;
  const bool one_shot = !oom_fault_fired_ && fault_plan_.oom_at_alloc > 0 &&
                        seq == fault_plan_.oom_at_alloc;
  const bool burst = FaultPlan::in_burst(seq, fault_plan_.oom_every,
                                         fault_plan_.oom_burst_len);
  if (one_shot || burst) {
    if (one_shot) oom_fault_fired_ = true;
    FaultProvenance prov;
    prov.source = FaultProvenance::Source::kInjectedOom;
    prov.plan_field = one_shot ? "oom_at_alloc" : "oom_every";
    prov.plan_value =
        one_shot ? fault_plan_.oom_at_alloc : fault_plan_.oom_every;
    prov.seq = seq;
    prov.context = fault_context_;
    std::ostringstream os;
    os << "injected allocation fault: alloc #" << seq << " (" << bytes
       << " B) failed by FaultPlan" << prov.describe();
    OutOfMemory oom(os.str(), static_cast<std::int64_t>(bytes), live_bytes_,
                    0);
    oom.provenance = std::move(prov);
    throw oom;
  }
  if (capacity_bytes_ > 0 &&
      live_bytes_ + static_cast<std::int64_t>(bytes) > capacity_bytes_) {
    std::ostringstream os;
    os << "device out of memory: requested " << bytes << " B with "
       << live_bytes_ << " B live of " << capacity_bytes_ << " B capacity";
    OutOfMemory oom(os.str(), static_cast<std::int64_t>(bytes), live_bytes_,
                    capacity_bytes_);
    oom.provenance.source = FaultProvenance::Source::kCapacity;
    oom.provenance.seq = seq;
    oom.provenance.context = fault_context_;
    throw oom;
  }

  const bool guarded = mode_ == MemoryMode::kGuarded;
  const std::uint64_t offset = bump(guarded ? bytes + kRedzoneBytes : bytes);
  if (guarded) {
    std::memset(arena_.data() + offset, std::to_integer<int>(kUninitPoison),
                bytes);
    std::memset(arena_.data() + offset + bytes,
                std::to_integer<int>(kRedzonePoison), kRedzoneBytes);
  }
  allocs_.push_back({offset, bytes, true});
  live_bytes_ += static_cast<std::int64_t>(bytes);
  peak_bytes_ = std::max(peak_bytes_, live_bytes_);
  if (trace_ != nullptr) {
    trace_->record_alloc(alloc_seq_, site != nullptr ? site->id : 0, offset,
                         bytes);
  }
  return offset;
}

void DeviceMemory::release_bytes(std::uint64_t offset, std::uint64_t bytes) {
  if (bytes == 0) return;  // freeing a null handle is a no-op
  // Bump offsets are unique for non-empty allocations, so an exact binary
  // search identifies the record.
  auto it = std::lower_bound(
      allocs_.begin(), allocs_.end(), offset,
      [](const AllocationRecord& a, std::uint64_t off) { return a.offset < off; });
  // Zero-size allocations do not advance the bump pointer, so they share
  // their offset with the next real allocation; skip past them to the
  // record that actually owns these bytes.
  while (it != allocs_.end() && it->offset == offset && it->bytes == 0) ++it;
  TLP_CHECK_MSG(it != allocs_.end() && it->offset == offset &&
                    it->bytes == bytes,
                "free() of an address that was never allocated (offset "
                    << offset << ", " << bytes << " B)");
  TLP_CHECK_MSG(it->live, "double free of device allocation at offset "
                              << offset << " (" << bytes << " B)");
  it->live = false;
  if (mode_ == MemoryMode::kGuarded) {
    std::memset(arena_.data() + offset, std::to_integer<int>(kFreedPoison),
                bytes);
  }
  live_bytes_ -= static_cast<std::int64_t>(bytes);
  TLP_CHECK_GE(live_bytes_, 0);
  if (trace_ != nullptr) trace_->record_free(-1, offset, bytes);
}

void DeviceMemory::note_host_write(std::uint64_t offset,
                                   std::uint64_t bytes) const {
  if (trace_ != nullptr && bytes > 0) trace_->record_host_write(offset, bytes);
}

void DeviceMemory::note_host_read(std::uint64_t offset,
                                  std::uint64_t bytes) const {
  if (trace_ != nullptr && bytes > 0) trace_->record_host_read(offset, bytes);
}

const DeviceMemory::AllocationRecord* DeviceMemory::find_allocation(
    std::uint64_t addr) const {
  // Last record with offset <= addr (records are offset-sorted).
  auto it = std::upper_bound(
      allocs_.begin(), allocs_.end(), addr,
      [](std::uint64_t a, const AllocationRecord& r) { return a < r.offset; });
  while (it != allocs_.begin()) {
    --it;
    if (it->bytes == 0) continue;  // zero-size allocs own no addresses
    if (addr < it->offset) continue;
    return addr < it->offset + it->bytes ? &*it : nullptr;
  }
  return nullptr;
}

void DeviceMemory::guarded_check(std::uint64_t byte_addr,
                                 std::size_t bytes) const {
  const AllocationRecord* rec = find_allocation(byte_addr);
  if (rec == nullptr) {
    fail_access(byte_addr, bytes,
                "in a redzone / outside any allocation (out-of-bounds)");
  }
  if (!rec->live) {
    fail_access(byte_addr, bytes, "inside a freed allocation (use-after-free)");
  }
  if (byte_addr + bytes > rec->offset + rec->bytes) {
    fail_access(byte_addr, bytes, "straddling the end of its allocation");
  }
}

void DeviceMemory::fail_access(std::uint64_t byte_addr, std::size_t bytes,
                               const char* what) const {
  std::ostringstream os;
  os << "invalid device access: " << bytes << " B at byte address "
     << byte_addr << ' ' << what;
  if (!kernel_name_.empty()) os << " [kernel '" << kernel_name_ << "']";
  const AllocationRecord* rec = find_allocation(byte_addr);
  if (rec != nullptr) {
    os << " (allocation [" << rec->offset << ", " << rec->offset + rec->bytes
       << "), " << (rec->live ? "live" : "freed") << ')';
  }
  throw InvalidAccess(os.str(), byte_addr, kernel_name_);
}

void DeviceMemory::begin_kernel(const std::string& name) {
  kernel_name_ = name;
  if (mode_ == MemoryMode::kGuarded) write_shadow_.clear();
}

void DeviceMemory::end_kernel() { kernel_name_.clear(); }

void DeviceMemory::note_store(std::uint64_t byte_addr, int bytes,
                              std::int64_t warp, bool atomic) {
  if (mode_ != MemoryMode::kGuarded) return;
  auto [it, inserted] = write_shadow_.try_emplace(
      byte_addr, ShadowWrite{warp, atomic});
  if (!inserted) {
    const ShadowWrite prev = it->second;
    if (prev.warp != warp && (!prev.atomic || !atomic)) {
      std::ostringstream os;
      os << "write race: warps " << prev.warp << " and " << warp
         << " both stored to byte address " << byte_addr << " (" << bytes
         << " B) within kernel '" << kernel_name_
         << "' and at least one store was non-atomic";
      throw WriteRace(os.str(), byte_addr, kernel_name_, prev.warp, warp);
    }
    it->second = ShadowWrite{warp, atomic};
  }
}

void DeviceMemory::flip_bit(std::uint64_t byte_addr, int bit) {
  TLP_CHECK_LT(byte_addr, top_);
  TLP_CHECK_GE(bit, 0);
  TLP_CHECK_LT(bit, 8);
  arena_[byte_addr] ^= std::byte{static_cast<unsigned char>(1u << bit)};
}

void DeviceMemory::reset() {
  if (trace_ != nullptr) trace_->record_reset();
  // Every access was bounded by top_, so nothing past it was written.
  dirty_ = std::max(dirty_, top_);
  top_ = 0;
  size_ = 0;
  live_bytes_ = 0;
  peak_bytes_ = 0;
  ++generation_;
  allocs_.clear();
  write_shadow_.clear();
  kernel_name_.clear();
  // alloc_seq_ and oom_fault_fired_ survive on purpose: a one-shot injected
  // fault must stay consumed across the degradation retry's reset.
}

}  // namespace tlp::sim
