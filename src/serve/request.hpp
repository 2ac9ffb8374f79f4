// Serving-request model: one inference request, its subgraph payload, and
// the per-request outcome taxonomy (DESIGN.md §11).
//
// A request asks for the embedding of one *query vertex* and carries the
// k-hop ego subgraph that influences it — the data a sampled-mini-batch
// serving tier ships to the device. Every request ends in exactly one of
// five outcomes, so an SLO report always accounts for 100% of traffic:
//
//   Ok        served by the direct path on the first attempt
//   Retried   served by the direct path after >= 1 failed attempt
//   Degraded  served by the partitioned fallback path (bit-identical output)
//   Rejected  never executed: shed at admission (queue full) or expired in
//             the queue before execution started
//   Failed    executed but every direct retry and fallback attempt failed
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/subgraph.hpp"
#include "tensor/tensor.hpp"

namespace tlp::serve {

enum class Outcome { kOk, kRetried, kDegraded, kRejected, kFailed };

inline constexpr Outcome kAllOutcomes[] = {
    Outcome::kOk, Outcome::kRetried, Outcome::kDegraded, Outcome::kRejected,
    Outcome::kFailed};

const char* outcome_name(Outcome o);

/// One inference request, fully materialized by the traffic generator.
struct Request {
  std::int64_t id = 0;     ///< dense 0..n-1, arrival order (trace-span id)
  double arrival_ms = 0;   ///< simulated arrival time
  double deadline_ms = 0;  ///< absolute simulated deadline; <= 0 = none
  graph::VertexId query = 0;        ///< global id of the query vertex
  graph::VertexId query_local = 0;  ///< query's row in the ego subgraph
  /// k-hop ego subgraph around `query` (in-edge direction). Local vertex
  /// order is the global id order of the kept set, so a given (graph, query,
  /// hops, cap) always produces the identical subgraph.
  graph::LocalGraph ego;
  /// Gathered feature rows, ego-local order. With a FeatureCache attached
  /// the server re-gathers these bytes through the cache at serve time (the
  /// accounted path); this copy is the free pre-gathered legacy payload.
  tensor::Tensor feat;
};

/// What happened to one request. `output` is the served embedding of the
/// query vertex — empty unless the outcome is Ok/Retried/Degraded.
struct Response {
  std::int64_t id = 0;
  Outcome outcome = Outcome::kFailed;
  double arrival_ms = 0;  ///< copied from the request (for SLO accounting)
  double latency_ms = 0;  ///< completion - arrival; 0 for Rejected
  double queue_ms = 0;    ///< arrival -> execution start; 0 for Rejected
  int direct_attempts = 0;    ///< batched + per-request direct executions
  int fallback_attempts = 0;  ///< partitioned-ladder executions
  int partitions = 0;  ///< parts a Degraded success ran over
  bool deadline_missed = false;
  std::string error;  ///< last failure (Failed) or rejection reason
  std::vector<float> output;

  [[nodiscard]] bool served() const {
    return outcome == Outcome::kOk || outcome == Outcome::kRetried ||
           outcome == Outcome::kDegraded;
  }
};

/// Two runs' responses to the same traffic, compared request by request.
struct ServedComparison {
  std::int64_t served_in_both = 0;
  std::vector<std::int64_t> mismatched;  ///< request ids, in traffic order
};

/// Compares the outputs of every request that both `a` and `b` served
/// (responses indexed by request, as Server::run returns them; a request
/// served in only one run is skipped). The comparison is bitwise: a length
/// difference or any differing bit, -0.0 vs 0.0 included, is a mismatch.
ServedComparison compare_served(const std::vector<Response>& a,
                                const std::vector<Response>& b);

}  // namespace tlp::serve
