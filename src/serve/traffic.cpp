#include "serve/traffic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"

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

EgoExtractor::Slot& EgoExtractor::probe(VertexId v) {
  const std::size_t mask = table_.size() - 1;
  // Fibonacci hash; the table is at most half full, so probing ends.
  std::size_t i = (static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ull) >>
                  shift_;
  while (table_[i].key != v && table_[i].key >= 0) i = (i + 1) & mask;
  return table_[i];
}

void EgoExtractor::collect(VertexId query, int hops,
                           std::int64_t max_vertices) {
  const graph::Csr& g = *g_;
  TLP_CHECK_MSG(query >= 0 && query < g.num_vertices(),
                "ego query vertex " << query << " out of range (|V|="
                                    << g.num_vertices() << ")");
  TLP_CHECK_GE(hops, 0);
  TLP_CHECK_GE(max_vertices, 1);

  // Clear the previous query's slots. The table only grows, to the largest
  // cap asked for so far, so it stays at most half full.
  for (const std::size_t s : touched_) table_[s].key = -1;
  touched_.clear();
  const std::size_t slots = std::bit_ceil(
      2 * static_cast<std::uint64_t>(
              std::min<std::int64_t>(max_vertices, g.num_vertices())));
  if (table_.size() < slots) {
    table_.assign(slots, Slot{});
    shift_ = 64 - std::countr_zero(slots);
  }
  const auto insert = [this](VertexId v) {
    Slot& s = probe(v);
    if (s.key == v) return false;
    s.key = v;
    touched_.push_back(static_cast<std::size_t>(&s - table_.data()));
    return true;
  };

  // BFS; ids_[level_begin, level_end) is the current hop's frontier.
  insert(query);
  ids_.assign(1, query);
  const auto full = [&] {
    return static_cast<std::int64_t>(ids_.size()) >= max_vertices;
  };
  std::size_t level_begin = 0;
  for (int h = 0; h < hops && level_begin < ids_.size() && !full(); ++h) {
    const std::size_t level_end = ids_.size();
    for (std::size_t i = level_begin; i < level_end && !full(); ++i) {
      for (const VertexId u : g.neighbors(ids_[i])) {
        if (full()) break;
        if (insert(u)) ids_.push_back(u);
      }
    }
    level_begin = level_end;
  }
  std::sort(ids_.begin(), ids_.end());
}

std::span<const VertexId> EgoExtractor::vertices(VertexId query, int hops,
                                                 std::int64_t max_vertices) {
  collect(query, hops, max_vertices);
  return ids_;
}

graph::LocalGraph EgoExtractor::extract(VertexId query, int hops,
                                        std::int64_t max_vertices,
                                        VertexId* query_local) {
  collect(query, hops, max_vertices);
  const std::size_t n = ids_.size();
  for (std::size_t lv = 0; lv < n; ++lv) {
    probe(ids_[lv]).local = static_cast<VertexId>(lv);
  }

  // The rows graph::induced_subgraph builds over the kept set: kept rows in
  // id order, each source relabeled by its rank among the kept ids. Ranks
  // keep the global order, so a sorted global row stays sorted; a row that
  // is not is sorted in place, as build_csr would emit it.
  std::vector<graph::EdgeOffset> indptr(n + 1, 0);
  rows_.clear();
  for (std::size_t lv = 0; lv < n; ++lv) {
    const std::size_t row_begin = rows_.size();
    for (const VertexId u : g_->neighbors(ids_[lv])) {
      const Slot& s = probe(u);
      if (s.key == u) rows_.push_back(s.local);
    }
    const auto first = rows_.begin() + static_cast<std::ptrdiff_t>(row_begin);
    if (!std::is_sorted(first, rows_.end())) std::sort(first, rows_.end());
    indptr[lv + 1] = static_cast<graph::EdgeOffset>(rows_.size());
  }
  if (query_local != nullptr) *query_local = probe(query).local;

  graph::LocalGraph out;
  out.csr = graph::Csr(std::move(indptr),
                       std::vector<VertexId>(rows_.begin(), rows_.end()));
  out.to_global.assign(ids_.begin(), ids_.end());
  out.num_owned = static_cast<VertexId>(n);
  return out;
}

graph::LocalGraph ego_subgraph(const graph::Csr& g, VertexId query, int hops,
                               std::int64_t max_vertices) {
  return EgoExtractor(g).extract(query, hops, max_vertices);
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

  EgoExtractor egos(g);
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
    req.ego = egos.extract(query, opts.hops, opts.max_ego_vertices,
                           &req.query_local);
    req.feat = gather_rows(feat, req.ego.to_global);
    out.push_back(std::move(req));
  }
  return out;
}

}  // namespace tlp::serve
