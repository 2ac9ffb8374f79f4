#include "serve/traffic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "graph/builder.hpp"

namespace tlp::serve {

namespace {

using graph::VertexId;

/// Cumulative Zipf distribution over ranks 0..n-1: P(r) ∝ 1/(r+1)^alpha.
std::vector<double> zipf_cdf(std::int64_t n, double alpha) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double total = 0;
  for (std::int64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Seeded Fisher–Yates permutation of 0..n-1 — maps popularity rank to a
/// vertex id, so the hot set is a random subset rather than the low ids
/// (which generators tend to make hubs already).
std::vector<VertexId> rank_to_vertex(VertexId n, Rng& rng) {
  std::vector<VertexId> perm(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  for (VertexId i = n - 1; i > 0; --i) {
    const auto j = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

/// Open-addressing set of vertex ids sized for at most `max_members`
/// members: the BFS visited set of one ego extraction. Sized by the ego cap
/// instead of |V|, so a request costs O(ego) however large the graph is.
class VisitedSet {
 public:
  explicit VisitedSet(std::int64_t max_members)
      : slots_(std::bit_ceil(2 * static_cast<std::uint64_t>(max_members)),
               -1),
        shift_(64 - std::countr_zero(slots_.size())) {}

  /// Adds `v`; false if it was already a member.
  bool insert(VertexId v) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hash; the table is at most half full, so probing ends.
    for (std::size_t i = (static_cast<std::uint64_t>(v) *
                          0x9E3779B97F4A7C15ull) >> shift_;
         ; i = (i + 1) & mask) {
      if (slots_[i] == v) return false;
      if (slots_[i] < 0) {
        slots_[i] = v;
        return true;
      }
    }
  }

 private:
  std::vector<VertexId> slots_;  ///< -1 = empty
  int shift_;
};

}  // namespace

QueryStream::QueryStream(VertexId num_vertices, double zipf_alpha, Rng& rng) {
  // An empty vertex set is a valid (if degenerate) stream: construction
  // consumes zero rng draws and num_vertices() reports 0, so callers like
  // FeatureCache can build the stream unconditionally and gate the drawing
  // loop instead. Only draw() itself requires a non-empty set.
  TLP_CHECK_GE(num_vertices, 0);
  TLP_CHECK_GE(zipf_alpha, 0);
  rank_to_vertex_ = rank_to_vertex(num_vertices, rng);
  if (zipf_alpha > 0 && num_vertices > 0) {
    cdf_ = zipf_cdf(num_vertices, zipf_alpha);
  }
}

VertexId QueryStream::draw(Rng& rng) const {
  const auto n = static_cast<std::int64_t>(rank_to_vertex_.size());
  // Rng::next_below(0) is an empty range (documented UB); fail loudly in
  // every build mode rather than depending on the caller's checks.
  TLP_CHECK_MSG(n > 0, "QueryStream::draw on an empty vertex set");
  std::int64_t rank;
  if (cdf_.empty()) {
    rank = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
  } else {
    const double u = rng.next_double();
    rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    rank = std::min<std::int64_t>(rank, n - 1);
  }
  return rank_to_vertex_[static_cast<std::size_t>(rank)];
}

tensor::Tensor gather_rows(const tensor::Tensor& feat,
                           const std::vector<VertexId>& ids) {
  tensor::Tensor out(static_cast<VertexId>(ids.size()), feat.cols());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto src = feat.row(ids[i]);
    std::copy(src.begin(), src.end(),
              out.row(static_cast<VertexId>(i)).begin());
  }
  return out;
}

graph::LocalGraph ego_subgraph(const graph::Csr& g, VertexId query, int hops,
                               std::int64_t max_vertices) {
  TLP_CHECK_MSG(query >= 0 && query < g.num_vertices(),
                "ego query vertex " << query << " out of range (|V|="
                                    << g.num_vertices() << ")");
  TLP_CHECK_GE(hops, 0);
  TLP_CHECK_GE(max_vertices, 1);

  // BFS; ids[level_begin, level_end) is the current hop's frontier.
  VisitedSet seen(std::min<std::int64_t>(max_vertices, g.num_vertices()));
  seen.insert(query);
  std::vector<VertexId> ids{query};
  const auto full = [&] {
    return static_cast<std::int64_t>(ids.size()) >= max_vertices;
  };
  std::size_t level_begin = 0;
  for (int h = 0; h < hops && level_begin < ids.size() && !full(); ++h) {
    const std::size_t level_end = ids.size();
    for (std::size_t i = level_begin; i < level_end && !full(); ++i) {
      for (const VertexId u : g.neighbors(ids[i])) {
        if (full()) break;
        if (seen.insert(u)) ids.push_back(u);
      }
    }
    level_begin = level_end;
  }

  // The same edges, in the same order, as graph::induced_subgraph over the
  // visited set builds: kept rows in id order, each in CSR order, sources
  // relabeled by their rank among the kept ids.
  std::sort(ids.begin(), ids.end());
  std::vector<graph::Edge> edges;
  for (std::size_t lv = 0; lv < ids.size(); ++lv) {
    for (const VertexId u : g.neighbors(ids[lv])) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), u);
      if (it != ids.end() && *it == u) {
        edges.push_back({static_cast<VertexId>(it - ids.begin()),
                         static_cast<VertexId>(lv)});
      }
    }
  }
  graph::LocalGraph out;
  out.csr = graph::build_csr(static_cast<VertexId>(ids.size()),
                             std::move(edges), {.dedup = false});
  out.num_owned = static_cast<VertexId>(ids.size());
  out.to_global = std::move(ids);
  return out;
}

std::vector<Request> generate_traffic(const graph::Csr& g,
                                      const tensor::Tensor& feat,
                                      const TrafficOptions& opts) {
  TLP_CHECK_MSG(g.num_vertices() > 0, "traffic needs a non-empty graph");
  TLP_CHECK_EQ(feat.rows(), g.num_vertices());
  TLP_CHECK_GE(opts.num_requests, 0);
  TLP_CHECK_GT(opts.mean_interarrival_ms, 0);
  TLP_CHECK_GE(opts.zipf_alpha, 0);
  TLP_CHECK_GT(opts.burst_len, 0);
  TLP_CHECK_GT(opts.burst_speedup, 0);

  Rng rng(opts.seed);
  const QueryStream queries(g.num_vertices(), opts.zipf_alpha, rng);

  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(opts.num_requests));
  double clock = 0;
  for (std::int64_t i = 0; i < opts.num_requests; ++i) {
    // Arrival.
    if (opts.arrival == ArrivalProcess::kPoisson) {
      clock += -std::log(1.0 - rng.next_double()) * opts.mean_interarrival_ms;
    } else {
      if (i > 0 && i % opts.burst_len == 0) clock += opts.gap_ms;
      clock += -std::log(1.0 - rng.next_double()) *
               (opts.mean_interarrival_ms / opts.burst_speedup);
    }

    // Popularity-weighted query vertex.
    const VertexId query = queries.draw(rng);

    Request req;
    req.id = i;
    req.arrival_ms = clock;
    req.deadline_ms = opts.deadline_ms > 0 ? clock + opts.deadline_ms : 0;
    req.query = query;
    req.ego = ego_subgraph(g, query, opts.hops, opts.max_ego_vertices);

    // Local id of the query: its position among the kept, id-ordered set.
    const auto it = std::lower_bound(req.ego.to_global.begin(),
                                     req.ego.to_global.end(), query);
    TLP_CHECK(it != req.ego.to_global.end() && *it == query);
    req.query_local = static_cast<VertexId>(it - req.ego.to_global.begin());

    req.feat = gather_rows(feat, req.ego.to_global);
    out.push_back(std::move(req));
  }
  return out;
}

}  // namespace tlp::serve
