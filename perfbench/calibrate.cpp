#include "calibrate.hpp"

#include <algorithm>

namespace tlp::perfbench {

namespace {

constexpr std::size_t kWays = 16;
constexpr std::size_t kSets = 2048;  // 16 ways x 2048 sets x 8 B = 256 KiB
constexpr std::int64_t kAccesses = 600'000;

volatile std::uint64_t g_sink = 0;

}  // namespace

SpeedProbe::SpeedProbe() : tags_(kSets * kWays, ~std::uint64_t{0}) {}

void SpeedProbe::run() {
  std::fill(tags_.begin(), tags_.end(), ~std::uint64_t{0});
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t hits = 0;
  const Timer t;
  for (std::int64_t i = 0; i < kAccesses; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Three quarters of the accesses fall in a hot eighth of the lines.
    const std::uint64_t span =
        (x & 3) != 0 ? kSets * kWays / 8 : kSets * kWays * 2;
    const std::uint64_t line = (x >> 8) % span;
    std::uint64_t* set = &tags_[(line % kSets) * kWays];
    std::size_t way = 0;
    while (way < kWays && set[way] != line) ++way;
    if (way < kWays) {
      ++hits;
    } else {
      way = kWays - 1;
    }
    for (; way > 0; --way) set[way] = set[way - 1];  // move to front (LRU)
    set[0] = line;
  }
  samples_.push_back(t.seconds());
  g_sink = hits;
  since_.reset();
}

double SpeedProbe::take() {
  if (samples_.empty()) run();
  std::vector<double> s;
  s.swap(samples_);
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

}  // namespace tlp::perfbench
