#include "sim/cache.hpp"

#include <bit>

#include "common/check.hpp"

namespace tlp::sim {

SetAssocCache::SetAssocCache(std::int64_t capacity_bytes, int line_bytes,
                             int ways)
    : line_bytes_(line_bytes), ways_(ways) {
  TLP_CHECK(capacity_bytes > 0 && line_bytes > 0 && ways > 0);
  const std::int64_t lines = capacity_bytes / line_bytes;
  TLP_CHECK_MSG(lines >= ways && lines % ways == 0,
                "capacity must hold a whole number of sets");
  num_sets_ = static_cast<int>(lines / ways);
  const auto ulines = static_cast<std::uint64_t>(line_bytes_);
  if (std::has_single_bit(ulines))
    line_shift_ = std::countr_zero(ulines);
  const auto usets = static_cast<std::uint64_t>(num_sets_);
  if (std::has_single_bit(usets)) set_mask_ = usets - 1;
  ways_flat_.assign(static_cast<std::size_t>(num_sets_) * ways_, Way{0, 0});
}

bool SetAssocCache::contains(std::uint64_t byte_addr) const {
  const std::uint64_t line = line_of(byte_addr);
  const std::size_t base = set_of(line) * static_cast<std::size_t>(ways_);
  for (std::size_t w = base; w < base + static_cast<std::size_t>(ways_); ++w) {
    if (ways_flat_[w].tag == line && ways_flat_[w].last_use > epoch_)
      return true;
  }
  return false;
}

void SetAssocCache::reset() {
  epoch_ = tick_;
  last_line_ = 0;
  last_way_ = kNoWay;
  accesses_ = 0;
  hits_ = 0;
}

}  // namespace tlp::sim
