// TLP-BAL-008 — inter-warp load imbalance (see passes.hpp).
//
// "Work" is measured as trace requests: every load/store/atomic a warp
// issues, scalar or vector. That is what the memory system actually
// retires, so it captures degree skew after whatever balancing the
// scheduler did — a warp-per-vertex kernel on a power-law graph shows the
// hub vertex's warp issuing orders of magnitude more requests than the
// median, while the software-pool kernel spreads the same total evenly.
#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/passes.hpp"

namespace tlp::analysis {

namespace {

/// Flag a kernel whose busiest warp issues more than this multiple of the
/// mean per-warp request count, over at least kBalanceMinWarps warps and
/// kMinRequests requests: the paper's warp-per-vertex balance claim,
/// inverted.
constexpr double kBalanceRatio = 8.0;
constexpr std::int64_t kBalanceMinWarps = 8;

}  // namespace

void BalancePass::run(const sim::KernelTrace& kt, const PassOptions& /*opt*/,
                      std::vector<Diagnostic>& out) const {
  struct WarpAgg {
    std::int64_t requests = 0;
    /// Requests per site, to name the busiest warp's dominant site.
    std::map<std::uint32_t, std::int64_t> by_site;
  };
  std::map<std::int64_t, WarpAgg> warps;
  std::int64_t total = 0;
  for (const sim::TraceAccess& a : kt.accesses) {
    WarpAgg& w = warps[a.warp];
    w.requests += 1;
    w.by_site[a.site] += 1;
    ++total;
  }
  if (static_cast<std::int64_t>(warps.size()) < kBalanceMinWarps ||
      total < kMinRequests) {
    return;
  }

  const WarpAgg* busiest = nullptr;
  std::int64_t busiest_warp = -1;
  for (const auto& [warp, agg] : warps) {
    if (busiest == nullptr || agg.requests > busiest->requests) {
      busiest = &agg;
      busiest_warp = warp;
    }
  }
  const double mean = static_cast<double>(total) /
                      static_cast<double>(warps.size());
  const double ratio = static_cast<double>(busiest->requests) / mean;
  if (ratio <= kBalanceRatio) return;

  // Attribute the imbalance to the busiest warp's dominant access site so a
  // kernel that accepts the skew can suppress exactly there. std::map order
  // makes the smallest site id win ties, deterministically.
  std::uint32_t dom_site = 0;
  std::int64_t dom_count = -1;
  for (const auto& [site, n] : busiest->by_site) {
    if (n > dom_count) {
      dom_site = site;
      dom_count = n;
    }
  }

  Diagnostic d;
  d.rule = rule();
  d.severity = Severity::kWarning;
  d.kernel = kt.kernel;
  d.site_id = dom_site;
  d.metric = ratio;
  d.count = busiest->requests;
  std::ostringstream os;
  os << "inter-warp imbalance: warp " << busiest_warp << " issued "
     << busiest->requests << " memory requests, " << ratio
     << "x the per-warp mean of " << mean << " (over " << warps.size()
     << " warps) — the straggler warp bounds the kernel";
  d.message = os.str();
  out.push_back(std::move(d));
}

}  // namespace tlp::analysis
