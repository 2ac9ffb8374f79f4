#include "sim/cache.hpp"

#include <bit>

#include "common/check.hpp"

namespace tlp::sim {

SetAssocCache::SetAssocCache(std::int64_t capacity_bytes, int line_bytes,
                             int ways)
    : line_bytes_(line_bytes), ways_(ways) {
  TLP_CHECK(capacity_bytes > 0 && line_bytes > 0 && ways > 0);
  TLP_CHECK_MSG(static_cast<std::uint64_t>(ways) <= kCountMask,
                "ways must fit the set header's live count");
  const std::int64_t lines = capacity_bytes / line_bytes;
  TLP_CHECK_MSG(lines >= ways && lines % ways == 0,
                "capacity must hold a whole number of sets");
  num_sets_ = static_cast<int>(lines / ways);
  const auto ulines = static_cast<std::uint64_t>(line_bytes_);
  if (std::has_single_bit(ulines))
    line_shift_ = std::countr_zero(ulines);
  const auto usets = static_cast<std::uint64_t>(num_sets_);
  if (std::has_single_bit(usets)) set_mask_ = usets - 1;
  lines_.assign(static_cast<std::size_t>(lines), 0);
  heads_.assign(static_cast<std::size_t>(num_sets_), epoch_);
}

bool SetAssocCache::contains(std::uint64_t byte_addr) const {
  const std::uint64_t line = line_of(byte_addr);
  const std::size_t set = set_of(line);
  const std::uint64_t* const s =
      &lines_[set * static_cast<std::size_t>(ways_)];
  const unsigned live = live_count(set);
  for (unsigned i = 0; i < live; ++i) {
    if (s[i] == line) return true;
  }
  return false;
}

void SetAssocCache::reset() {
  epoch_ += kCountMask + 1;
  mru_valid_ = false;
  accesses_ = 0;
  hits_ = 0;
}

}  // namespace tlp::sim
