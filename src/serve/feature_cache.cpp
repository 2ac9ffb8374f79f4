#include "serve/feature_cache.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/check.hpp"
#include "sim/trace.hpp"

namespace tlp::serve {

namespace {

using graph::VertexId;

/// Queries drawn per warm-up round. Each query replays the live popularity
/// law and expands the same k-hop ego the live request would, so sampled
/// frequency estimates true gather frequency.
constexpr std::int64_t kWarmupQueriesPerRound = 256;

/// Seed of the warm-up draw stream. Independent of the traffic seed (which
/// fixes the popularity permutation itself), so warm-up samples the law
/// without replaying the literal request sequence.
constexpr std::uint64_t kWarmupSeed = 0x5eedCac4eULL;

/// Simulated bandwidth of a missed row: scattered single-row pulls over the
/// host link (PCIe 3.0 x16 is ~12 GB/s streaming; random 64–512 B rows
/// derate it heavily). Unit: GB/s.
constexpr double kMissGbPerS = 8.0;

/// Simulated bandwidth of a hit row: coalesced reads of the pinned region in
/// device memory (V100 HBM2 ~900 GB/s). Unit: GB/s.
constexpr double kHitGbPerS = 900.0;

/// ms to move `bytes` at `gb_per_s` (1 GB/s == 1e6 bytes/ms).
double transfer_ms(std::int64_t bytes, double gb_per_s) {
  return static_cast<double>(bytes) / (gb_per_s * 1e6);
}

/// Vertex ids ordered by (score desc, id asc) — the deterministic ranking
/// both policies pin from.
std::vector<VertexId> rank_by_score(const std::vector<std::int64_t>& score) {
  std::vector<VertexId> order(score.size());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&score](VertexId a, VertexId b) {
                     return score[static_cast<std::size_t>(a)] >
                            score[static_cast<std::size_t>(b)];
                   });
  return order;
}

}  // namespace

const char* cache_policy_name(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kNone: return "none";
    case CachePolicy::kDegree: return "degree";
    case CachePolicy::kPresample: return "presample";
  }
  return "?";
}

CachePolicy cache_policy_from_name(const std::string& name) {
  if (name == "none") return CachePolicy::kNone;
  if (name == "degree") return CachePolicy::kDegree;
  if (name == "presample") return CachePolicy::kPresample;
  TLP_CHECK_MSG(false, "unknown cache policy '"
                           << name << "' (want presample|degree|none)");
  return CachePolicy::kNone;
}

FeatureCache::FeatureCache(const graph::Csr& g, const tensor::Tensor& feat,
                           const TrafficOptions& traffic,
                           const FeatureCacheOptions& opts,
                           sim::AccessTrace* trace)
    : feat_(&feat), opts_(opts) {
  if (trace != nullptr) dev_.attach_trace(trace);
  TLP_CHECK_EQ(feat.rows(), g.num_vertices());
  TLP_CHECK_MSG(opts.cache_ratio >= 0 && opts.cache_ratio <= 1,
                "cache_ratio must be in [0, 1], got " << opts.cache_ratio);
  TLP_CHECK_GE(opts.warmup_rounds, 0);

  const VertexId n = g.num_vertices();
  slot_of_.assign(static_cast<std::size_t>(n), -1);
  const auto budget = static_cast<std::int64_t>(
      opts.cache_ratio * static_cast<double>(n) + 0.5);

  // Score every vertex under the chosen policy, then pin the top `budget`.
  std::vector<std::int64_t> score(static_cast<std::size_t>(n), 0);
  bool drop_zero_scores = false;
  switch (opts_.policy) {
    case CachePolicy::kNone:
      break;  // all scores zero, nothing pinned
    case CachePolicy::kDegree:
      // Static heuristic: how often a vertex appears in neighbor lists —
      // exactly the count of egos one expansion step can pull it into.
      for (VertexId v = 0; v < n; ++v) {
        for (const VertexId u : g.neighbors(v)) {
          ++score[static_cast<std::size_t>(u)];
        }
      }
      break;
    case CachePolicy::kPresample: {
      // K warm-up rounds over the live popularity law: same permutation as
      // the traffic seed (QueryStream construction), independent draw
      // stream (kWarmupSeed), same ego shape — sampled frequency is an
      // unbiased estimate of true per-row gather frequency.
      Rng perm_rng(traffic.seed);
      const QueryStream stream(n, traffic.zipf_alpha, perm_rng);
      Rng warm(kWarmupSeed);
      // n == 0 leaves the stream empty (draw() would fail loudly) and
      // warmup_rounds == 0 (`--cache-rounds 0`) is a valid configuration:
      // both leave every score zero, so drop_zero_scores pins nothing and
      // the cache degrades to the uncached gather path.
      for (int round = 0; n > 0 && round < opts.warmup_rounds; ++round) {
        for (std::int64_t q = 0; q < kWarmupQueriesPerRound; ++q) {
          const VertexId query = stream.draw(warm);
          const graph::LocalGraph ego = ego_subgraph(
              g, query, traffic.hops, traffic.max_ego_vertices);
          for (const VertexId u : ego.to_global) {
            ++score[static_cast<std::size_t>(u)];
          }
        }
      }
      // A row warm-up never touched has estimated frequency zero; pinning
      // it would waste region bytes on rows the law says are cold.
      drop_zero_scores = true;
      break;
    }
  }

  if (opts_.policy != CachePolicy::kNone && budget > 0) {
    const std::vector<VertexId> order = rank_by_score(score);
    pinned_.reserve(static_cast<std::size_t>(budget));
    for (const VertexId v : order) {
      if (static_cast<std::int64_t>(pinned_.size()) >= budget) break;
      if (drop_zero_scores && score[static_cast<std::size_t>(v)] == 0) break;
      pinned_.push_back(v);
    }
  }

  if (!pinned_.empty()) {
    // Pin order is slot order (hottest row first): one contiguous upload,
    // labeled so tlpsan whole-trace passes can name the region.
    const std::int64_t cols = feat.cols();
    std::vector<float> rows(pinned_.size() * static_cast<std::size_t>(cols));
    for (std::size_t s = 0; s < pinned_.size(); ++s) {
      slot_of_[static_cast<std::size_t>(pinned_[s])] =
          static_cast<std::int32_t>(s);
      const auto src = feat.row(pinned_[s]);
      std::copy(src.begin(), src.end(),
                rows.begin() + static_cast<std::ptrdiff_t>(
                                   s * static_cast<std::size_t>(cols)));
    }
    region_ = dev_.upload<float>(std::span<const float>(rows),
                                 TLP_SITE("serve_feature_cache"));
  }
  stats_restore_pins();
}

void FeatureCache::stats_restore_pins() {
  stats_.pinned_rows = static_cast<std::int64_t>(pinned_.size());
  stats_.pinned_bytes = stats_.pinned_rows * feat_->cols() *
                        static_cast<std::int64_t>(sizeof(float));
}

double FeatureCache::gather(const std::vector<VertexId>& ids,
                            tensor::Tensor& out) {
  const std::int64_t cols = feat_->cols();
  out = tensor::Tensor(static_cast<VertexId>(ids.size()), cols);

  std::int64_t hits = 0;
  // One const view per gather: the trace (when attached) records a host
  // read of the region — the D2H touch the reuse/lifetime passes consume.
  sim::ArenaView<const float> pinned;
  if (!region_.is_null()) {
    const sim::DeviceMemory& mem = dev_.mem();
    pinned = mem.view(region_);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::int32_t slot = slot_of_[static_cast<std::size_t>(ids[i])];
    auto dst = out.row(static_cast<VertexId>(i));
    if (slot >= 0) {
      ++hits;
      const float* src =
          pinned.data() + static_cast<std::ptrdiff_t>(slot) * cols;
      std::copy(src, src + cols, dst.begin());
    } else {
      const auto src = feat_->row(ids[i]);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }

  const auto misses = static_cast<std::int64_t>(ids.size()) - hits;
  const std::int64_t row_bytes = cols * static_cast<std::int64_t>(sizeof(float));
  const std::int64_t bytes_hit = hits * row_bytes;
  const std::int64_t bytes_miss = misses * row_bytes;
  const double charge_ms = transfer_ms(bytes_hit, kHitGbPerS) +
                           transfer_ms(bytes_miss, kMissGbPerS);

  stats_.hit_rows += hits;
  stats_.miss_rows += misses;
  stats_.bytes_hit += bytes_hit;
  stats_.bytes_miss += bytes_miss;
  stats_.gather_ms += charge_ms;
  return charge_ms;
}

sim::Metrics FeatureCache::metrics() const {
  sim::Metrics m = dev_.metrics();
  m.bytes_cache_hit = static_cast<double>(stats_.bytes_hit);
  m.bytes_cache_miss = static_cast<double>(stats_.bytes_miss);
  return m;
}

}  // namespace tlp::serve
