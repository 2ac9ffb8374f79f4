// Set-associative tag-array cache model with LRU replacement. Used for the
// per-SM L1s and the shared L2; only tags are tracked (data lives in the
// DeviceMemory arena), which is all the traffic/hit-rate metrics need.
//
// Hot-path layout (DESIGN.md §10): each set keeps its live lines in recency
// order, most recently used first, in one flat array of 8-byte line tags,
// and a second flat array holds one 8-byte header per set, `epoch << 8 |
// live count`. The recency order is the LRU state, so there are no
// timestamps and no victim search: a hit at position i moves entries
// 0..i-1 back one slot and puts the line in front, and a miss does the same
// for the first min(count, ways-1) entries, which drops the LRU line when
// the set is full. A header stamped with an older epoch means the set is
// empty, so reset() is O(1) and a cold miss reads no tags at all. The tag
// store of the 80 simulated V100 L1s plus the L2 is about 1.2 MB. Set
// selection is a shift/mask when the set count is a power of two (the V100
// L1 has 256 sets) and an exact modulo otherwise (the V100 L2 has 3072
// sets). The result is exact LRU that fills empty ways first. A last-line
// MRU filter short-circuits repeat accesses: the most recently accessed
// line is already at the front of its set, so the hit needs no probe and
// no write.
#pragma once

#include <cstdint>
#include <vector>

namespace tlp::sim {

class SetAssocCache {
 public:
  /// `capacity_bytes` / `line_bytes` / `ways` must divide evenly, and
  /// `ways` must fit the header's count field (at most 255).
  SetAssocCache(std::int64_t capacity_bytes, int line_bytes, int ways);

  /// Accesses the line containing `byte_addr`; returns true on hit and
  /// inserts on miss. LRU within the set. The innermost call of the memory
  /// model (hundreds of millions of probes per tlpbench run), so it is
  /// always inlined: WarpCtx::charge probes each line's L1, and its L2 on a
  /// miss, through it, and without the attribute the LTO build kept one
  /// out-of-line copy that every probe called (DESIGN.md §10).
  [[gnu::always_inline]] inline bool access(std::uint64_t byte_addr);

  /// Probe without inserting or touching LRU state.
  [[nodiscard]] bool contains(std::uint64_t byte_addr) const;

  /// Host prefetch of the set `byte_addr` maps to and of its header, so a
  /// caller that knows a probe is coming can overlap the tag-store memory
  /// access with other work. No simulation effect of any kind.
  void prefetch_set(std::uint64_t byte_addr) const {
    const std::size_t set = set_of(line_of(byte_addr));
    __builtin_prefetch(&lines_[set * static_cast<std::size_t>(ways_)], 1, 3);
    __builtin_prefetch(&heads_[set], 1, 3);
  }

  /// Empties the cache and zeroes the counters in O(1): it starts a new
  /// epoch, which turns every set header into an empty set, and clears the
  /// MRU filter. No tag is rewritten.
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
  static constexpr int kCountBits = 8;
  static constexpr std::uint64_t kCountMask = (1u << kCountBits) - 1;

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
  /// Live lines in `set`: its header's count if stamped with the current
  /// epoch, else 0.
  [[nodiscard]] unsigned live_count(std::size_t set) const {
    const std::uint64_t head = heads_[set];
    return (head & ~kCountMask) == epoch_
               ? static_cast<unsigned>(head & kCountMask)
               : 0u;
  }

  int line_bytes_;
  int ways_;
  int num_sets_;
  int line_shift_ = -1;        ///< log2(line_bytes) when a power of two
  std::uint64_t set_mask_ = 0; ///< num_sets-1 when a power of two, else 0
  // num_sets_ * ways_ line tags; set s owns [s * ways_, (s + 1) * ways_),
  // most recently used first. Only the first live_count(s) are meaningful,
  // so no tag value is a sentinel.
  std::vector<std::uint64_t> lines_;
  // One header per set: epoch << kCountBits | live count.
  std::vector<std::uint64_t> heads_;
  std::uint64_t epoch_ = 0;  ///< current epoch, pre-shifted by kCountBits
  // MRU filter: the most recently accessed line, valid until reset().
  std::uint64_t mru_line_ = 0;
  bool mru_valid_ = false;
  std::int64_t accesses_ = 0;
  std::int64_t hits_ = 0;
};

inline bool SetAssocCache::access(std::uint64_t byte_addr) {
  const std::uint64_t line = line_of(byte_addr);
  ++accesses_;
  // MRU filter: the last line accessed went to the front of its set, and
  // nothing has touched the cache since, so a repeat is a hit that changes
  // nothing.
  if (line == mru_line_ && mru_valid_) {
    ++hits_;
    return true;
  }
  mru_line_ = line;
  mru_valid_ = true;
  const std::size_t set = set_of(line);
  std::uint64_t* const s = &lines_[set * static_cast<std::size_t>(ways_)];
  const unsigned live = live_count(set);
  // One pass searches and shifts: each entry moves back one slot until the
  // line is found (a hit at i leaves it in front of the old 0..i-1) or the
  // live entries run out (a miss, whose last carried entry is the LRU line).
  std::uint64_t carry = line;
  for (unsigned i = 0; i < live; ++i) {
    const std::uint64_t cur = s[i];
    s[i] = carry;
    if (cur == line) {
      ++hits_;
      return true;
    }
    carry = cur;
  }
  if (live < static_cast<unsigned>(ways_)) {
    s[live] = carry;
    heads_[set] = epoch_ | (live + 1);
  }
  return false;
}

}  // namespace tlp::sim
