// FGNN-style pre-sampling feature cache for the serving tier (DESIGN.md §12,
// ROADMAP item 3).
//
// The GNN inference bottleneck is the irregular per-request feature gather:
// every ego subgraph pulls a few hundred scattered rows out of the global
// feature matrix. Under Zipf query popularity those rows are heavily skewed,
// so a small pinned cache of the hot rows removes most of the traffic. The
// cache estimates hotness the way FGNN does — not from degree alone, but by
// *pre-sampling*: it replays K seeded warm-up rounds of the exact query
// popularity law the live traffic uses (serve/traffic.hpp's QueryStream +
// k-hop ego sampler), counts how often each vertex's row is gathered, and
// pins the top-C rows in a dedicated device-memory region.
//
// Bit-identity: the pinned region is uploaded from the same global feature
// matrix the uncached gather reads, and gather() copies whole rows from one
// source or the other. Served rows are therefore byte-identical to the
// uncached path — only the *accounting* (hit/miss split, simulated gather
// time) changes. The storm bit-identity tests assert exactly this.
//
// Accounting: a server without a cache treats the gather as free (it
// happened at traffic-generation time). Attaching a cache makes the gather
// cost visible: miss rows are charged at the slow scattered host-transfer
// bandwidth, hit rows at the fast coalesced device bandwidth, and the byte
// split lands in CacheStats / sim::Metrics (bytes_cache_hit/miss). The
// `none` policy is a cache with zero pinned rows — it pays the full miss
// cost, making it the comparable baseline of the serve_cache bench sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "serve/traffic.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"
#include "tensor/tensor.hpp"

namespace tlp::serve {

/// Row-pinning policy of the cache.
enum class CachePolicy {
  kNone,       ///< pin nothing: every gather row pays the miss path
  kDegree,     ///< pin the top-C vertices by in-degree (static heuristic)
  kPresample,  ///< pin the top-C by sampled gather frequency (FGNN-style)
};

[[nodiscard]] const char* cache_policy_name(CachePolicy policy);
/// Parses "none" / "degree" / "presample"; TLP_CHECK-fails on anything else.
[[nodiscard]] CachePolicy cache_policy_from_name(const std::string& name);

struct FeatureCacheOptions {
  CachePolicy policy = CachePolicy::kPresample;
  /// Fraction of |V| whose rows are pinned (the C of top-C), clamped to
  /// [0, 1]. The presample policy pins at most the vertices its warm-up
  /// actually touched.
  double cache_ratio = 0.10;
  /// Warm-up rounds: the K of K-round pre-sampling.
  int warmup_rounds = 3;
};

/// Running totals over every gather() since construction / reset_stats().
/// All counts are simulated-deterministic: same seed, same totals.
struct CacheStats {
  /// Rows pinned at warm-up. CUDA analogue: the cache region's
  /// `cudaMalloc` extent / row size. Unit: rows.
  std::int64_t pinned_rows = 0;
  /// Bytes of the pinned device region. Unit: bytes.
  std::int64_t pinned_bytes = 0;
  /// Gathered rows served from the pinned region. Nsight Compute analogue:
  /// device-local reads (`dram__bytes_read.sum` on the cache region).
  /// Unit: rows.
  std::int64_t hit_rows = 0;
  /// Gathered rows that fell through to the global matrix. Nsight Systems
  /// analogue: H2D memcpy rows on the PCIe timeline. Unit: rows.
  std::int64_t miss_rows = 0;
  /// Byte split of the same traffic. Unit: bytes.
  std::int64_t bytes_hit = 0;
  std::int64_t bytes_miss = 0;
  /// Simulated time spent gathering (hit + miss charges). Unit: ms.
  double gather_ms = 0;

  /// hit_rows / (hit_rows + miss_rows); 0 when nothing was gathered.
  [[nodiscard]] double hit_ratio() const {
    const std::int64_t total = hit_rows + miss_rows;
    return total > 0 ? static_cast<double>(hit_rows) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// The cache itself. Owns a dedicated sim::Device for the pinned region —
/// engine devices are reset at every system run, so the region must live
/// elsewhere (exactly as a real deployment pins cache rows outside the
/// per-batch workspace). The region is allocated under the TLP_SITE label
/// "serve_feature_cache", so an AccessTrace attached to device() feeds the
/// tlpsan whole-trace passes (TLP-LIFE-007 lifetimes, TLP-REUSE-009 reuse).
class FeatureCache {
 public:
  /// Builds the cache: runs warm-up (presample policy), ranks vertices,
  /// uploads the top-C rows of `feat` into the pinned region. `traffic`
  /// supplies the popularity law (seed, zipf_alpha) and the ego shape
  /// (hops, max_ego_vertices) the warm-up replays; `feat` must outlive the
  /// cache (misses gather from it). `trace` (optional, not owned) is
  /// attached to the cache device *before* the region is allocated, so an
  /// interested tlpsan session sees the allocation event too — attaching to
  /// device() after construction would leave the region's provenance
  /// untracked and the whole-trace passes would skip it.
  FeatureCache(const graph::Csr& g, const tensor::Tensor& feat,
               const TrafficOptions& traffic, const FeatureCacheOptions& opts,
               sim::AccessTrace* trace = nullptr);

  /// Gathers the feature rows of `ids` (global vertex ids) into `out`, one
  /// row per id in order — byte-identical to gather_rows(feat, ids). Splits
  /// rows into pinned-region hits and global-matrix misses, updates stats(),
  /// and returns the simulated gather charge in ms.
  double gather(const std::vector<graph::VertexId>& ids, tensor::Tensor& out);

  [[nodiscard]] bool is_pinned(graph::VertexId v) const {
    return slot_of_[static_cast<std::size_t>(v)] >= 0;
  }
  /// Pinned vertex ids in pin order (hottest first). Deterministic for a
  /// fixed (graph, traffic, options) triple — the warm-up determinism tests
  /// compare this set across rebuilds.
  [[nodiscard]] const std::vector<graph::VertexId>& pinned_vertices() const {
    return pinned_;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; stats_restore_pins(); }

  /// Aggregate metrics of the cache device, with the hit/miss byte split
  /// folded into the bytes_cache_* fields — what the serve_cache bench
  /// records next to the SLO numbers.
  [[nodiscard]] sim::Metrics metrics() const;

  /// The dedicated device holding the pinned region; attach an AccessTrace
  /// here to make the region visible to tlpsan whole-trace passes.
  [[nodiscard]] sim::Device& device() { return dev_; }

  [[nodiscard]] const FeatureCacheOptions& options() const { return opts_; }

 private:
  void stats_restore_pins();

  const tensor::Tensor* feat_;  ///< global matrix, not owned
  FeatureCacheOptions opts_;
  sim::Device dev_;
  sim::DevPtr<float> region_{};        ///< pinned rows, slot-major
  std::vector<std::int32_t> slot_of_;  ///< vertex -> pinned slot, -1 = miss
  std::vector<graph::VertexId> pinned_;
  CacheStats stats_;
};

}  // namespace tlp::serve
