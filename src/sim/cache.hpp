// Set-associative tag-array cache model with LRU replacement. Used for the
// per-SM L1s and the shared L2; only tags are tracked (data lives in the
// DeviceMemory arena), which is all the traffic/hit-rate metrics need.
//
// Hot-path layout (DESIGN.md §10): tags and LRU timestamps live in one flat
// array of 16-byte {tag, last_use} entries, so probing a 4-way set touches
// exactly one 64-byte host cache line (the tag arrays of 80 simulated L1s
// total ~2 MB and live far apart — halving the lines touched per probe is
// worth more than any instruction-level trick). Set selection is a
// shift/mask when the set count is a power of two (the common case — the
// V100 L1 has 256 sets) and falls back to an exact modulo otherwise (the
// V100 L2 has 3072 sets); both produce the same mapping the original
// div/mod implementation used, so hit/miss sequences are bit-identical.
// A last-line MRU filter short-circuits the scan entirely when an access
// repeats the previous line: the most recently used line cannot have been
// evicted in between, so the hit and its LRU update are known without
// probing the set.
#pragma once

#include <cstdint>
#include <vector>

namespace tlp::sim {

class SetAssocCache {
 public:
  /// `capacity_bytes` / `line_bytes` / `ways` must divide evenly.
  SetAssocCache(std::int64_t capacity_bytes, int line_bytes, int ways);

  /// Accesses the line containing `byte_addr`; returns true on hit and
  /// inserts on miss. LRU within the set. Defined inline below — this is the
  /// innermost call of the memory model (hundreds of millions of probes per
  /// tlpbench run) and must not cost a cross-TU call.
  bool access(std::uint64_t byte_addr);

  /// Probe without inserting or touching LRU state.
  [[nodiscard]] bool contains(std::uint64_t byte_addr) const;

  /// Host prefetch of the set `byte_addr` maps to, so a caller that knows a
  /// probe is coming can overlap the tag-array memory access with other
  /// work. No simulation effect of any kind.
  void prefetch_set(std::uint64_t byte_addr) const {
    const std::uint64_t line = line_of(byte_addr);
    __builtin_prefetch(
        &ways_flat_[set_of(line) * static_cast<std::size_t>(ways_)], 1, 3);
  }

  /// Empties the cache and zeroes the counters in O(1): the tag array is
  /// left in place and its ways are retired by the epoch rule (see
  /// ways_flat_), so a device reset does not rewrite megabytes of tags.
  void reset();

  [[nodiscard]] std::int64_t accesses() const { return accesses_; }
  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] double hit_rate() const {
    return accesses_ == 0 ? 0.0
                          : static_cast<double>(hits_) / static_cast<double>(accesses_);
  }
  [[nodiscard]] int num_sets() const { return num_sets_; }
  [[nodiscard]] int ways() const { return ways_; }

 private:
  static constexpr std::size_t kNoWay = static_cast<std::size_t>(-1);

  [[nodiscard]] std::uint64_t line_of(std::uint64_t byte_addr) const {
    return line_shift_ >= 0 ? byte_addr >> line_shift_
                            : byte_addr / static_cast<std::uint64_t>(line_bytes_);
  }
  [[nodiscard]] std::size_t set_of(std::uint64_t line) const {
    return set_mask_ != 0
               ? static_cast<std::size_t>(line & set_mask_)
               : static_cast<std::size_t>(
                     line % static_cast<std::uint64_t>(num_sets_));
  }

  int line_bytes_;
  int ways_;
  int num_sets_;
  int line_shift_ = -1;        ///< log2(line_bytes) when a power of two
  std::uint64_t set_mask_ = 0; ///< num_sets-1 when a power of two, else 0
  struct Way {
    std::uint64_t tag;
    std::uint64_t last_use;
  };
  // Flat array, num_sets_ * ways_ entries. A way is live iff its last_use
  // is greater than epoch_, so no tag value is a sentinel and a line that
  // happens to equal the old ~0 filler can never produce a bogus cold hit.
  // reset() moves epoch_ up to tick_ instead of rewriting the array: every
  // way dies at once, and since ticks never repeat, a dead way's last_use
  // is below every live one's, so LRU still fills dead ways first and the
  // hit/miss sequence matches a freshly built cache.
  std::vector<Way> ways_flat_;
  // MRU filter: absolute index of the way holding the most recently
  // accessed line (kNoWay until the first access after construction/reset).
  std::uint64_t last_line_ = 0;
  std::size_t last_way_ = kNoWay;
  std::uint64_t tick_ = 0;
  std::uint64_t epoch_ = 0;  ///< tick_ at the last reset()
  std::int64_t accesses_ = 0;
  std::int64_t hits_ = 0;
};

inline bool SetAssocCache::access(std::uint64_t byte_addr) {
  const std::uint64_t line = line_of(byte_addr);
  ++accesses_;
  ++tick_;
  // MRU filter: the most recently touched line is by definition the newest
  // entry in its set, so LRU cannot have evicted it since — a repeat access
  // is a guaranteed hit and only needs its timestamp refreshed.
  if (line == last_line_ && last_way_ != kNoWay) {
    ways_flat_[last_way_].last_use = tick_;
    ++hits_;
    return true;
  }
  const std::size_t base = set_of(line) * static_cast<std::size_t>(ways_);
  std::size_t victim = base;
  for (std::size_t w = base; w < base + static_cast<std::size_t>(ways_); ++w) {
    const Way& e = ways_flat_[w];
    if (e.tag == line && e.last_use > epoch_) {
      ways_flat_[w].last_use = tick_;
      last_line_ = line;
      last_way_ = w;
      ++hits_;
      return true;
    }
    if (e.last_use < ways_flat_[victim].last_use) victim = w;
  }
  ways_flat_[victim] = {line, tick_};
  last_line_ = line;
  last_way_ = victim;
  return false;
}

}  // namespace tlp::sim
