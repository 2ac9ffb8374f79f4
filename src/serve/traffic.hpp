// Seed-deterministic traffic synthesis for the serving runtime.
//
// Models the request stream of a production GNN deployment (ROADMAP item 3):
// arrivals follow a Poisson process or an on/off bursty process, query
// vertices follow a power-law (Zipf) popularity over a seeded permutation of
// the vertex set (hot vertices are *random* vertices, not low ids), and each
// request carries the k-hop ego subgraph + gathered features it needs. Every
// draw comes from one seeded common/rng stream, so a (graph, options) pair
// always produces a byte-identical request sequence — the property the
// serving-determinism fuzz oracle and the fault-storm bit-identity checks
// are built on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "graph/csr.hpp"
#include "serve/request.hpp"
#include "tensor/tensor.hpp"

namespace tlp::serve {

enum class ArrivalProcess { kPoisson, kBursty };

struct TrafficOptions {
  std::int64_t num_requests = 256;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// Mean inter-arrival gap of the Poisson process (and of the in-burst
  /// phase of the bursty process, divided by burst_speedup).
  double mean_interarrival_ms = 1.0;
  /// Bursty process: `burst_len` requests arrive back-to-back at
  /// mean/burst_speedup spacing, then the source idles for gap_ms.
  std::int64_t burst_len = 32;
  double burst_speedup = 8.0;
  double gap_ms = 20.0;
  /// Zipf popularity exponent over the permuted vertex set; 0 = uniform.
  double zipf_alpha = 0.8;
  /// Ego-subgraph radius in in-edge hops.
  int hops = 2;
  /// Cap on ego-subgraph vertices: BFS stops admitting new frontier vertices
  /// beyond this (closer hops win; within a hop, row order wins). Bounds the
  /// per-request device footprint on hub queries.
  std::int64_t max_ego_vertices = 512;
  /// Relative deadline applied to every request; <= 0 disables deadlines.
  double deadline_ms = 0;
  std::uint64_t seed = 42;
};

/// Ego subgraph around one query vertex: the <= `hops`-step in-neighborhood
/// (capped at `max_vertices`, closer vertices first), induced and relabeled
/// in global id order. Each local row lists its sources in increasing order,
/// duplicate edges kept: the graph::induced_subgraph of the kept set. A
/// one-shot EgoExtractor call, for tests and direct single-request use.
graph::LocalGraph ego_subgraph(const graph::Csr& g, graph::VertexId query,
                               int hops, std::int64_t max_vertices);

/// Ego extraction with its scratch kept across calls: generate_traffic and
/// the presample warm-up run one extractor over their whole query loop. An
/// open-addressing table maps each kept global id to its local id. It holds
/// 2·min(cap, |V|) slots rounded up to a power of two for the largest cap
/// asked for so far, and each call clears only the slots the previous one
/// filled, so a request costs O(ego) however large |V| is. Each kept row is
/// relabeled with one table probe per in-neighbor and appended in place.
/// `g` must outlive the extractor; calls mutate its scratch, so a thread
/// needs its own.
class EgoExtractor {
 public:
  explicit EgoExtractor(const graph::Csr& g) : g_(&g) {}
  explicit EgoExtractor(const graph::Csr&&) = delete;  ///< would dangle

  /// ego_subgraph(g, query, hops, max_vertices). `query_local`, when given,
  /// receives the query's local id.
  graph::LocalGraph extract(graph::VertexId query, int hops,
                            std::int64_t max_vertices,
                            graph::VertexId* query_local = nullptr);

  /// The ego's vertex set alone, sorted: extract(...).to_global with no CSR
  /// built. Points into the extractor, valid until its next call.
  std::span<const graph::VertexId> vertices(graph::VertexId query, int hops,
                                            std::int64_t max_vertices);

 private:
  struct Slot {
    graph::VertexId key = -1;  ///< global id; -1 = empty
    graph::VertexId local = 0;
  };

  /// BFS from `query` into ids_ and the table, then sorts ids_.
  void collect(graph::VertexId query, int hops, std::int64_t max_vertices);
  /// The slot holding `v`, or the empty slot where its probe ends.
  Slot& probe(graph::VertexId v);

  const graph::Csr* g_;
  std::vector<Slot> table_;
  int shift_ = 0;                        ///< 64 - log2(table_.size())
  std::vector<std::size_t> touched_;     ///< slots filled since the last clear
  std::vector<graph::VertexId> ids_;     ///< kept ids: BFS order, then sorted
  std::vector<graph::VertexId> rows_;    ///< relabeled rows, concatenated
};

/// The query-popularity law of the traffic stream, factored out of
/// generate_traffic so the pre-sampling feature cache (feature_cache.hpp)
/// can replay the *same* law during its warm-up rounds. Holds the seeded
/// rank-to-vertex permutation plus the Zipf CDF; drawing is stateless over a
/// caller-supplied Rng. Construction consumes exactly one Fisher–Yates pass
/// from `rng` and draw() exactly one variate, so generate_traffic's draw
/// sequence — and therefore every checked-in traffic seed — is unchanged by
/// the refactor.
class QueryStream {
 public:
  /// Draws the rank->vertex permutation from `rng`; `zipf_alpha == 0` makes
  /// draws uniform over the vertex set. `num_vertices` may be 0 (an empty
  /// stream: zero rng draws consumed, only draw() is then invalid) or 1
  /// (every draw returns vertex 0 after consuming its one variate, so seeded
  /// draw sequences stay aligned with larger graphs).
  QueryStream(graph::VertexId num_vertices, double zipf_alpha, Rng& rng);

  /// One popularity-weighted query vertex (consumes one variate of `rng`).
  /// Fails a check on an empty stream — never an empty-range rng draw.
  [[nodiscard]] graph::VertexId draw(Rng& rng) const;

  [[nodiscard]] graph::VertexId num_vertices() const {
    return static_cast<graph::VertexId>(rank_to_vertex_.size());
  }

 private:
  std::vector<graph::VertexId> rank_to_vertex_;
  std::vector<double> cdf_;  ///< cumulative P(rank); empty = uniform
};

/// Dense gather of the feature rows of `ids` (global vertex ids, one output
/// row per id, in order) — the uncached per-request gather path. The cached
/// path (FeatureCache::gather) must produce byte-identical output.
tensor::Tensor gather_rows(const tensor::Tensor& feat,
                           const std::vector<graph::VertexId>& ids);

/// Generates the full request sequence. `feat` is the global feature matrix
/// (one row per vertex of `g`); each request gathers its ego rows from it.
std::vector<Request> generate_traffic(const graph::Csr& g,
                                      const tensor::Tensor& feat,
                                      const TrafficOptions& opts);

}  // namespace tlp::serve
