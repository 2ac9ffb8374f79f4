// TLP-REUSE-009 — reuse-distance thrashing (see passes.hpp).
//
// For every reuse of a 128 B line the pass computes the exact LRU stack
// distance: the number of *distinct* lines touched since that line's
// previous touch. A fully-associative LRU cache of C lines hits a reuse iff
// its stack distance is < C, so distance x line_bytes > l2_bytes means the
// L2 could not have held the data no matter the replacement luck — the
// reuse is guaranteed DRAM traffic.
//
// Exact distances come from the classic Fenwick-tree formulation (Bennett &
// Kruskal): timestamps of each line's most recent touch are marked in a
// bit-indexed tree; the distance of a reuse at time t of a line last
// touched at time p is the number of marks in (p, t). Two walks over the
// trace: the first counts line-touches to size the tree, the second
// computes distances. O(N log N), deterministic.
//
// DeviceMemory::reset() recycles byte offsets, so the last-touch map is
// cleared at every reset event: an address reused across a reset is a
// different buffer, not a reuse. (Stale marks left in the tree predate the
// reset and therefore never land inside a post-reset (p, t) window.)
#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "analysis/passes.hpp"
#include "analysis/trace_walk.hpp"

namespace tlp::analysis {

namespace {

constexpr std::uint64_t kLineBytes = 128;

/// Flag a site when at least kReuseMissFrac of its reuses have an LRU stack
/// distance exceeding the L2, over at least kReuseMinReuses reused lines:
/// reuse the cache can never capture.
constexpr double kReuseMissFrac = 0.5;
constexpr std::int64_t kReuseMinReuses = 64;

/// Fenwick tree over touch timestamps; supports point +/-1 and prefix sum.
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t i, int delta) {
    for (++i; i < tree_.size(); i += i & (~i + 1)) tree_[i] += delta;
  }

  /// Sum of marks at timestamps [0, i].
  [[nodiscard]] std::int64_t prefix(std::size_t i) const {
    std::int64_t s = 0;
    for (++i; i > 0; i -= i & (~i + 1)) s += tree_[i];
    return s;
  }

 private:
  std::vector<std::int32_t> tree_;
};

/// Unique lines touched by one warp request, ascending. A lane access can
/// straddle a line boundary; both lines count.
void request_lines(const sim::TraceAccess& a,
                   std::vector<std::uint64_t>& lines) {
  lines.clear();
  for_each_lane(a, [&](std::uint64_t addr, int bytes) {
    lines.push_back(addr / kLineBytes);
    const std::uint64_t last =
        (addr + static_cast<std::uint64_t>(bytes) - 1) / kLineBytes;
    if (last != addr / kLineBytes) lines.push_back(last);
  });
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

}  // namespace

void ReusePass::run(const sim::AccessTrace& trace, const PassOptions& opt,
                    std::vector<Diagnostic>& out) const {
  // Walk 1: count line-touches to size the timestamp space.
  std::size_t touches = 0;
  std::vector<std::uint64_t> lines;
  walk_trace(
      trace, [](const sim::MemEvent&) {},
      [&](const sim::KernelTrace&, int, const sim::TraceAccess& a) {
        request_lines(a, lines);
        touches += lines.size();
      });
  if (touches == 0) return;

  // Walk 2: exact stack distances, aggregated per access site.
  struct SiteAgg {
    std::int64_t reuses = 0;
    std::int64_t far_reuses = 0;  ///< distance x line > L2
    std::int64_t sum_distance = 0;
    std::int64_t max_distance = 0;
  };
  std::map<std::uint32_t, SiteAgg> by_site;
  Fenwick marks(touches);
  std::unordered_map<std::uint64_t, std::size_t> last_touch;
  last_touch.reserve(1 << 12);
  const std::int64_t l2_lines = std::max<std::int64_t>(
      1, opt.gpu.l2_bytes / static_cast<std::int64_t>(kLineBytes));
  std::size_t t = 0;

  walk_trace(
      trace,
      [&](const sim::MemEvent& ev) {
        if (ev.kind == sim::MemEvent::Kind::kReset) last_touch.clear();
      },
      [&](const sim::KernelTrace&, int, const sim::TraceAccess& a) {
        request_lines(a, lines);
        SiteAgg& agg = by_site[a.site];
        for (const std::uint64_t line : lines) {
          auto it = last_touch.find(line);
          if (it != last_touch.end()) {
            const std::size_t prev = it->second;
            // Distinct lines touched strictly between prev and now.
            const std::int64_t distance =
                marks.prefix(t - 1) - marks.prefix(prev);
            agg.reuses += 1;
            agg.sum_distance += distance;
            agg.max_distance = std::max(agg.max_distance, distance);
            if (distance >= l2_lines) agg.far_reuses += 1;
            marks.add(prev, -1);
            it->second = t;
          } else {
            last_touch.emplace(line, t);
          }
          marks.add(t, +1);
          ++t;
        }
      });

  for (const auto& [site, agg] : by_site) {
    if (agg.reuses < kReuseMinReuses) continue;
    const double far_frac = static_cast<double>(agg.far_reuses) /
                            static_cast<double>(agg.reuses);
    if (far_frac < kReuseMissFrac) continue;
    Diagnostic d;
    d.rule = rule();
    d.severity = Severity::kWarning;
    d.kernel = "<run>";
    d.site_id = site;
    d.metric = far_frac;
    d.count = agg.reuses;
    std::ostringstream os;
    os << "reuse-distance thrashing: " << agg.far_reuses << " of "
       << agg.reuses << " line reuses (" << far_frac * 100.0
       << "%) have stack distance >= " << l2_lines
       << " lines (L2 capacity " << opt.gpu.l2_bytes
       << " B); mean distance "
       << static_cast<double>(agg.sum_distance) /
              static_cast<double>(agg.reuses)
       << ", max " << agg.max_distance
       << " — this working set re-pays DRAM for data it already fetched";
    d.message = os.str();
    out.push_back(std::move(d));
  }
}

}  // namespace tlp::analysis
