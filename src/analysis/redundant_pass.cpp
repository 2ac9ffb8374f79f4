#include <cstddef>
#include <functional>
#include <map>
#include <sstream>
#include <unordered_map>

#include "analysis/passes.hpp"

namespace tlp::analysis {

namespace {

/// Flag a site once this many fetches hit an address whose value the same
/// warp already held with no intervening store to it.
constexpr std::int64_t kRedundantLoads = 64;

struct PairHash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& p)
      const {
    return std::hash<std::uint64_t>()(p.first * 0x9e3779b97f4a7c15ull ^
                                      p.second);
  }
};

/// Last load of a word by one (warp, item) register scope.
struct LastLoad {
  std::int64_t seq = -1;   ///< global lane-op sequence of that load
  std::uint32_t site = 0;  ///< site that issued it
};

}  // namespace

void RedundantLoadPass::run(const sim::KernelTrace& kt,
                            const PassOptions& /*opt*/,
                            std::vector<Diagnostic>& out) const {
  // word -> global sequence of the last store/atomic touching it (any warp).
  std::unordered_map<std::uint64_t, std::int64_t> store_seq;
  // (scope key, word) -> last load. Scope = (warp, item): the lifetime of
  // the registers §6's caching would hold the value in. Combining warp and
  // item into one 64-bit key is safe for the synthetic lint workloads (both
  // far below 2^32).
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, LastLoad,
                     PairHash>
      last_load;
  // (refetch site, first-load site) -> redundant fetch count.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> redundant;

  std::int64_t seq = 0;
  for (const sim::TraceAccess& a : kt.accesses) {
    const std::uint64_t scope =
        (static_cast<std::uint64_t>(a.warp) << 32) ^
        static_cast<std::uint64_t>(a.item + 1);
    const int words = a.bytes >= 4 ? a.bytes / 4 : 1;
    for (int l = 0; l < sim::kTraceWarpSize; ++l) {
      if (((a.mask >> l) & 1u) == 0) continue;
      const std::uint64_t word0 = a.addr[static_cast<std::size_t>(l)] >> 2;
      for (int wd = 0; wd < words; ++wd) {
        const std::uint64_t word = word0 + static_cast<std::uint64_t>(wd);
        ++seq;
        if (a.kind != sim::AccessKind::kLoad) {
          store_seq[word] = seq;
          continue;
        }
        LastLoad& ll = last_load[{scope, word}];
        if (ll.seq >= 0) {
          const auto it = store_seq.find(word);
          if (it == store_seq.end() || it->second < ll.seq) {
            redundant[{a.site, ll.site}] += 1;
          }
        }
        ll.seq = seq;
        ll.site = a.site;
      }
    }
  }

  for (const auto& [sites, count] : redundant) {
    if (count < kRedundantLoads) continue;
    Diagnostic d;
    d.rule = rule();
    d.severity = Severity::kWarning;
    d.kernel = kt.kernel;
    d.site_id = sites.first;
    d.site2_id = sites.second;
    d.metric = static_cast<double>(count);
    d.count = count;
    std::ostringstream os;
    os << "redundant load: " << count << " fetches of words the same warp "
       << "already loaded in the same work item with no intervening store — "
       << "candidates for register caching (§6, Figure 7a)";
    d.message = os.str();
    out.push_back(std::move(d));
  }
}

}  // namespace tlp::analysis
