#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "analysis/passes.hpp"

namespace tlp::analysis {

namespace {

/// Report the top kAtomicTopK addresses; flag when the hottest address
/// absorbs at least kAtomicHotOps atomic lane-ops.
constexpr int kAtomicTopK = 3;
constexpr std::int64_t kAtomicHotOps = 64;

struct HotAddr {
  std::uint64_t addr = 0;
  std::int64_t ops = 0;
  std::uint32_t site = 0;  ///< site issuing the most ops on this address
};

}  // namespace

void AtomicContentionPass::run(const sim::KernelTrace& kt,
                               const PassOptions& /*opt*/,
                               std::vector<Diagnostic>& out) const {
  // Lane-op histogram over atomic target addresses, with per-address
  // majority-site attribution (first site wins ties — deterministic because
  // the trace order is).
  struct Counts {
    std::int64_t ops = 0;
    std::unordered_map<std::uint32_t, std::int64_t> by_site;
  };
  std::unordered_map<std::uint64_t, Counts> hist;
  std::int64_t total_ops = 0;
  for (const sim::TraceAccess& a : kt.accesses) {
    if (a.kind != sim::AccessKind::kAtomic) continue;
    for (int l = 0; l < sim::kTraceWarpSize; ++l) {
      if (((a.mask >> l) & 1u) == 0) continue;
      Counts& c = hist[a.addr[static_cast<std::size_t>(l)]];
      c.ops += 1;
      c.by_site[a.site] += 1;
      ++total_ops;
    }
  }
  if (hist.empty()) return;

  std::vector<HotAddr> hot;
  hot.reserve(hist.size());
  for (const auto& [addr, c] : hist) {
    HotAddr h{addr, c.ops, 0};
    std::int64_t best = -1;
    for (const auto& [site, n] : c.by_site) {
      if (n > best || (n == best && site < h.site)) {
        best = n;
        h.site = site;
      }
    }
    hot.push_back(h);
  }
  std::sort(hot.begin(), hot.end(), [](const HotAddr& a, const HotAddr& b) {
    return a.ops != b.ops ? a.ops > b.ops : a.addr < b.addr;
  });

  const HotAddr& worst = hot.front();
  if (worst.ops < kAtomicHotOps) return;

  Diagnostic d;
  d.rule = rule();
  d.severity = Severity::kWarning;
  d.kernel = kt.kernel;
  d.site_id = worst.site;
  d.metric = static_cast<double>(worst.ops);
  d.count = total_ops;
  std::ostringstream os;
  os << "atomic contention: hottest address absorbs " << worst.ops
     << " of " << total_ops << " atomic lane-ops (serialized by the L2 "
     << "atomic units — worst-case " << worst.ops
     << "-deep replay chain); top addresses:";
  const int k = std::min<int>(kAtomicTopK, static_cast<int>(hot.size()));
  for (int i = 0; i < k; ++i)
    os << " [" << hot[static_cast<std::size_t>(i)].addr << "]x"
       << hot[static_cast<std::size_t>(i)].ops;
  d.message = os.str();
  out.push_back(std::move(d));
}

}  // namespace tlp::analysis
