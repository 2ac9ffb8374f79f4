// Tests for the set-associative tag cache model.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "common/check.hpp"
#include "sim/cache.hpp"

namespace tlp::sim {
namespace {

/// Naive reference LRU model: per set, an ordered map from line to the tick
/// of its last use. Deliberately written with none of the production model's
/// optimizations (no flat arrays, no shift/mask indexing, no MRU filter) so
/// the differential test below exercises the rewrite against an obviously
/// correct implementation, including the victim tie-break on equal ages
/// (never happens with a global tick, but the structure keeps it explicit).
class ReferenceLru {
 public:
  ReferenceLru(std::int64_t capacity_bytes, int line_bytes, int ways)
      : line_bytes_(line_bytes),
        ways_(ways),
        sets_(static_cast<std::size_t>(capacity_bytes / line_bytes / ways)) {}

  bool access(std::uint64_t byte_addr) {
    const std::uint64_t line =
        byte_addr / static_cast<std::uint64_t>(line_bytes_);
    auto& set = sets_[static_cast<std::size_t>(
        line % static_cast<std::uint64_t>(sets_.size()))];
    ++tick_;
    ++accesses_;
    auto it = set.find(line);
    if (it != set.end()) {
      it->second = tick_;
      ++hits_;
      return true;
    }
    if (static_cast<int>(set.size()) == ways_) {
      auto victim = set.begin();
      for (auto i = set.begin(); i != set.end(); ++i)
        if (i->second < victim->second) victim = i;
      set.erase(victim);
    }
    set.emplace(line, tick_);
    return false;
  }

  [[nodiscard]] bool contains(std::uint64_t byte_addr) const {
    const std::uint64_t line =
        byte_addr / static_cast<std::uint64_t>(line_bytes_);
    return sets_[static_cast<std::size_t>(
                     line % static_cast<std::uint64_t>(sets_.size()))]
               .contains(line);
  }
  [[nodiscard]] std::int64_t accesses() const { return accesses_; }
  [[nodiscard]] std::int64_t hits() const { return hits_; }

 private:
  int line_bytes_;
  int ways_;
  std::vector<std::map<std::uint64_t, std::uint64_t>> sets_;
  std::uint64_t tick_ = 0;
  std::int64_t accesses_ = 0;
  std::int64_t hits_ = 0;
};

// Differential stress test guarding the flat tag-array rewrite and the
// epoch-stamped reset: random address streams (mixes of uniform-random
// lines, hot working sets, sequential sweeps and the top of the address
// space) must produce the exact hit/miss sequence, contains() answers and
// counters of the naive ordered-map reference across power-of-two and
// non-power-of-two set counts and associativities. At seeded points the
// model is reset() and compared from then on against a freshly built
// reference, so a reset cache must behave exactly like a new one.
TEST(Cache, DifferentialVsReferenceLru) {
  struct Geometry {
    std::int64_t capacity;
    int line_bytes;
    int ways;
  };
  const Geometry geoms[] = {
      {1024, 128, 1},      // 8 sets, direct-mapped
      {1024, 128, 2},      // 4 sets
      {2048, 128, 4},      // 4 sets
      {6144, 128, 4},      // 12 sets (non-power-of-two, like the V100 L2)
      {768, 128, 6},       // 1 set, fully associative
      {96, 32, 3},         // non-power-of-two line count per set
      {4096, 64, 8},       // 8 sets x 8 ways, 64 B lines
      {6 << 20, 128, 16},  // the V100 L2: 3072 sets x 16 ways
      {1024, 1, 4},        // 1-byte lines: the all-ones line is reachable
  };
  std::mt19937_64 rng(0xF00Du);
  for (const auto& g : geoms) {
    SetAssocCache model(g.capacity, g.line_bytes, g.ways);
    ReferenceLru ref(g.capacity, g.line_bytes, g.ways);
    const std::uint64_t lines =
        static_cast<std::uint64_t>(g.capacity / g.line_bytes);
    const std::uint64_t top_line =
        ~std::uint64_t{0} / static_cast<std::uint64_t>(g.line_bytes);
    std::uniform_int_distribution<std::uint64_t> wide(0, 4 * lines);
    std::uniform_int_distribution<std::uint64_t> hot(0, lines / 2 + 1);
    std::uint64_t seq = 0;
    int resets = 0;
    for (int i = 0; i < 20000; ++i) {
      if (rng() % 997 == 0) {
        model.reset();
        ref = ReferenceLru(g.capacity, g.line_bytes, g.ways);
        ++resets;
      }
      std::uint64_t line;
      switch (i % 5) {
        case 0: line = wide(rng); break;
        case 1: case 2: line = hot(rng); break;
        case 3: line = seq++ % (2 * lines); break;
        default: line = top_line - hot(rng); break;
      }
      const std::uint64_t a =
          line * static_cast<std::uint64_t>(g.line_bytes) +
          (rng() % static_cast<std::uint64_t>(g.line_bytes));
      ASSERT_EQ(model.contains(a), ref.contains(a))
          << "geometry " << g.capacity << "/" << g.line_bytes << "/"
          << g.ways << " contains() diverged at access " << i;
      ASSERT_EQ(model.access(a), ref.access(a))
          << "geometry " << g.capacity << "/" << g.line_bytes << "/"
          << g.ways << " diverged at access " << i;
      ASSERT_EQ(model.accesses(), ref.accesses());
      ASSERT_EQ(model.hits(), ref.hits());
    }
    EXPECT_GT(resets, 5);
  }
}

// The old implementation marked empty ways with an all-ones tag sentinel; a
// line whose index is actually ~0 (the very top of the address space) would
// have produced a bogus cold hit. The rewrite tracks emptiness via the
// last-use tick instead, so the first access to such a line must miss.
TEST(Cache, AllOnesLineIsNotASentinel) {
  SetAssocCache c(1024, 1, 4);  // 1-byte lines: line index == byte address
  EXPECT_FALSE(c.access(~std::uint64_t{0}));  // cold: must miss
  EXPECT_TRUE(c.access(~std::uint64_t{0}));
  c.reset();
  EXPECT_FALSE(c.access(~std::uint64_t{0}));  // reset: cold again
}

TEST(Cache, ColdMissThenHit) {
  SetAssocCache c(1024, 128, 2);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(64));  // same 128 B line
  EXPECT_EQ(c.accesses(), 3);
  EXPECT_EQ(c.hits(), 2);
}

TEST(Cache, DistinctLinesMiss) {
  SetAssocCache c(1024, 128, 2);
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(128));
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.0);
}

TEST(Cache, LruEviction) {
  // 2 sets x 2 ways; lines 0, 2, 4 map to set 0.
  SetAssocCache c(512, 128, 2);
  ASSERT_EQ(c.num_sets(), 2);
  EXPECT_FALSE(c.access(0 * 128));
  EXPECT_FALSE(c.access(2 * 128));
  EXPECT_TRUE(c.access(0 * 128));   // refresh line 0
  EXPECT_FALSE(c.access(4 * 128));  // evicts line 2 (LRU)
  EXPECT_TRUE(c.access(0 * 128));   // line 0 survived
  EXPECT_FALSE(c.access(2 * 128));  // line 2 was evicted
}

TEST(Cache, ContainsDoesNotTouch) {
  SetAssocCache c(512, 128, 2);
  EXPECT_FALSE(c.contains(0));
  c.access(0);
  EXPECT_TRUE(c.contains(0));
  EXPECT_EQ(c.accesses(), 1);  // contains() did not count
}

TEST(Cache, CapacityWorkingSet) {
  // 8 KB cache: 64 lines. A 32-line working set must fit entirely.
  SetAssocCache c(8192, 128, 4);
  for (int rep = 0; rep < 3; ++rep) {
    for (int line = 0; line < 32; ++line)
      c.access(static_cast<std::uint64_t>(line) * 128);
  }
  // First sweep misses, the remaining two hit fully.
  EXPECT_EQ(c.hits(), 64);
}

TEST(Cache, ThrashingWorkingSet) {
  // Working set 4x the capacity with a sequential sweep: ~zero hits.
  SetAssocCache c(1024, 128, 2);  // 8 lines
  for (int rep = 0; rep < 3; ++rep) {
    for (int line = 0; line < 32; ++line)
      c.access(static_cast<std::uint64_t>(line) * 128);
  }
  EXPECT_LT(c.hit_rate(), 0.05);
}

TEST(Cache, ResetClearsState) {
  SetAssocCache c(1024, 128, 2);
  c.access(0);
  c.reset();
  EXPECT_EQ(c.accesses(), 0);
  EXPECT_FALSE(c.access(0));
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache(100, 128, 3), tlp::CheckError);
}

}  // namespace
}  // namespace tlp::sim
