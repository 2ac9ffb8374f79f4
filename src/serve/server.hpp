// Resilient serving runtime (DESIGN.md §11): request-driven inference over
// the Engine/System stack with dynamic batching, bounded-queue admission
// control, deadline accounting, and a fault-tolerance ladder — all in
// simulated time, so a (traffic, options) pair replays byte-identically.
//
// The loop, per batch:
//   1. admission — arrivals join a bounded FIFO queue; a full queue sheds the
//      request (Outcome::kRejected) at its arrival instant.
//   2. batching  — the server waits up to batch_window_ms (or until max_batch
//      requests are queued) and merges the batch's ego subgraphs into one
//      block-diagonal disjoint union. Disjoint blocks keep every per-vertex
//      accumulation order and every GCN norm equal to the single-request run,
//      so a request's served row is bit-identical no matter which batch it
//      landed in — the property the storm/fault-free comparison tests assert.
//   3. execution — direct batched attempt; on DeviceError the batch unrolls
//      into the per-request ladder: direct retries with exponential backoff +
//      seeded jitter (gated by a circuit breaker), then the bit-identical
//      partitioned fallback (doubling part count), then Outcome::kFailed.
//   4. accounting — every response carries latency/queue time/attempt counts;
//      the SloReport totals are checked to cover 100% of traffic.
//
// Fault storms are armed deterministically: StormEvent re-arms the device's
// FaultPlan (Device::arm_faults) right before the batch containing the named
// request executes, so the same storm schedule always hits the same work.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "report/json.hpp"
#include "serve/policy.hpp"
#include "serve/request.hpp"
#include "serve/traffic.hpp"

namespace tlp::serve {

class FeatureCache;

/// Re-arms the device fault plan just before the batch whose first request id
/// is >= `at_request` executes. An empty FaultPlan ends the storm.
struct StormEvent {
  std::int64_t at_request = 0;
  sim::FaultPlan plan;
};

struct ServerOptions {
  /// Admission queue bound; arrivals beyond it are shed as kRejected.
  std::int64_t queue_capacity = 64;
  /// Requests merged into one device batch.
  int max_batch = 8;
  /// How long the server holds an under-full batch open for more arrivals.
  double batch_window_ms = 2.0;
  RetryPolicy retry;
  FallbackPolicy fallback;
  BreakerPolicy breaker;
  /// Device configuration. The server owns the retry/degrade ladder, so
  /// Engine's internal OutOfMemory fallback is forced off.
  EngineOptions engine;
  /// Deterministic fault-storm schedule, sorted by at_request.
  std::vector<StormEvent> storms;
};

/// Aggregated SLO metrics over one run. All times are simulated, so the JSON
/// form is byte-identical across replays of the same configuration.
struct SloReport {
  std::int64_t total = 0;
  std::int64_t ok = 0;
  std::int64_t retried = 0;
  std::int64_t degraded = 0;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;
  /// total - (ok+retried+degraded+rejected+failed); asserted zero.
  std::int64_t unaccounted = 0;

  double p50_ms = 0;   ///< served-request latency percentiles (nearest rank)
  double p99_ms = 0;
  double mean_ms = 0;
  double max_ms = 0;
  double makespan_ms = 0;       ///< first arrival -> last completion
  double throughput_rps = 0;    ///< served requests per simulated second

  double error_rate = 0;        ///< failed / total
  double degradation_rate = 0;  ///< degraded / total
  double rejection_rate = 0;    ///< rejected / total
  std::int64_t deadline_misses = 0;

  std::int64_t direct_attempts = 0;
  std::int64_t fallback_attempts = 0;
  std::int64_t breaker_opens = 0;

  // --- feature cache (DESIGN.md §12) ---------------------------------------
  // All zeros with policy "off" when the server has no FeatureCache
  // attached; otherwise Server::run folds the cache's CacheStats in after
  // summarize() (which only sees responses).
  std::string cache_policy = "off";
  std::int64_t cache_pinned_rows = 0;
  std::int64_t cache_hit_rows = 0;   ///< gather rows served from the region
  std::int64_t cache_miss_rows = 0;  ///< gather rows from the global matrix
  double cache_hit_ratio = 0;        ///< hit / (hit + miss); 0 when empty
  double cache_gather_ms = 0;        ///< simulated total gather charge

  /// FNV-1a over (id, served output bytes) in id order — one number that
  /// changes iff any served embedding changes bitwise.
  std::uint64_t output_digest = 0;

  [[nodiscard]] report::Json to_json() const;
};

struct ServeResult {
  std::vector<Response> responses;  ///< one per request, id order
  SloReport report;
};

class Server {
 public:
  /// `cache` (optional, not owned, must outlive the server) activates the
  /// pre-sampling feature cache: every executed request's rows are
  /// re-gathered through it — hits from the pinned region, misses from the
  /// global matrix — and the simulated gather charge joins the clock. The
  /// gathered bytes are identical to Request::feat, so served rows stay
  /// bit-identical to a cacheless server; only latencies and the cache
  /// accounting in SloReport change. No cache = the legacy free-gather
  /// behavior, byte-for-byte.
  explicit Server(const ServerOptions& opts, FeatureCache* cache = nullptr);

  /// Serves the full traffic sequence (must be arrival-ordered, ids 0..n-1 as
  /// generate_traffic produces) and returns per-request responses + the SLO
  /// report. `spec` must not carry edge weights (they are defined in global
  /// edge order, which a per-request subgraph does not preserve).
  ServeResult run(const std::vector<Request>& traffic,
                  const models::ConvSpec& spec);

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] FeatureCache* cache() { return cache_; }
  [[nodiscard]] const ServerOptions& options() const { return opts_; }

 private:
  ServerOptions opts_;
  Engine engine_;
  /// Fallback path system — run_partitioned needs direct system access.
  systems::TlpgnnSystem fallback_system_;
  FeatureCache* cache_ = nullptr;  ///< optional, not owned
};

/// Builds the SLO aggregate from a finished response set. Exposed for tests.
SloReport summarize(const std::vector<Response>& responses);

}  // namespace tlp::serve
