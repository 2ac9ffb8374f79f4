#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/passes.hpp"

namespace tlp::analysis {

namespace {

/// CoalescingPass flags a site whose sectors exceed this multiple of the
/// perfectly coalesced count, over at least kMinRequests requests.
constexpr double kCoalesceRatio = 4.0;

/// DivergencePass flags a kernel whose vector requests average fewer than
/// this fraction of 32 lanes active, over at least kMinRequests requests.
constexpr double kDivergenceFloor = 0.5;

struct SiteAgg {
  std::int64_t requests = 0;
  std::int64_t sectors = 0;
  std::int64_t ideal_sectors = 0;
  std::int64_t useful_bytes = 0;
};

}  // namespace

void CoalescingPass::run(const sim::KernelTrace& kt,
                         const PassOptions& /*opt*/,
                         std::vector<Diagnostic>& out) const {
  // Aggregate vector requests per static access site; unannotated accesses
  // pool under site 0 so they are still covered, just less precisely named.
  std::map<std::uint32_t, SiteAgg> by_site;
  for (const sim::TraceAccess& a : kt.accesses) {
    if (a.scalar) continue;  // a broadcast load is one sector by design
    const int lanes = a.active_lanes();
    if (lanes == 0) continue;
    SiteAgg& agg = by_site[a.site];
    agg.requests += 1;
    agg.sectors += a.sectors();
    // Perfect coalescing packs the active lanes' elements densely:
    // ceil(lanes * bytes / 32) sectors.
    agg.ideal_sectors += (static_cast<std::int64_t>(lanes) * a.bytes + 31) / 32;
    agg.useful_bytes += static_cast<std::int64_t>(lanes) * a.bytes;
  }

  for (const auto& [site, agg] : by_site) {
    if (agg.requests < kMinRequests) continue;
    const double per_req =
        static_cast<double>(agg.sectors) / static_cast<double>(agg.requests);
    const double ideal_per_req = static_cast<double>(agg.ideal_sectors) /
                                 static_cast<double>(agg.requests);
    if (static_cast<double>(agg.sectors) <=
        kCoalesceRatio * static_cast<double>(agg.ideal_sectors)) {
      continue;
    }
    Diagnostic d;
    d.rule = rule();
    d.severity = Severity::kWarning;
    d.kernel = kt.kernel;
    d.site_id = site;
    d.metric = per_req;
    d.count = agg.requests;
    std::ostringstream os;
    os << "uncoalesced access: " << per_req << " sectors/request (perfectly "
       << "coalesced would be " << ideal_per_req << ") over " << agg.requests
       << " requests — each 32 B sector delivers "
       << static_cast<double>(agg.useful_bytes) /
              std::max<double>(1.0, static_cast<double>(agg.sectors))
       << " useful bytes";
    d.message = os.str();
    out.push_back(std::move(d));
  }
}

void DivergencePass::run(const sim::KernelTrace& kt,
                         const PassOptions& /*opt*/,
                         std::vector<Diagnostic>& out) const {
  std::int64_t requests = 0;
  std::int64_t lanes = 0;
  for (const sim::TraceAccess& a : kt.accesses) {
    if (a.scalar) continue;
    requests += 1;
    lanes += a.active_lanes();
  }
  if (requests < kMinRequests) return;
  const double activity = static_cast<double>(lanes) /
                          (static_cast<double>(requests) *
                           static_cast<double>(sim::kTraceWarpSize));
  if (activity >= kDivergenceFloor) return;

  Diagnostic d;
  d.rule = rule();
  d.severity = Severity::kWarning;
  d.kernel = kt.kernel;
  d.metric = activity;
  d.count = requests;
  std::ostringstream os;
  os << "warp divergence: vector requests average "
     << activity * sim::kTraceWarpSize << " of 32 active lanes over "
     << requests << " requests — most lanes idle through the memory system";
  d.message = os.str();
  out.push_back(std::move(d));
}

}  // namespace tlp::analysis
