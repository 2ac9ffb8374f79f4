#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "graph/builder.hpp"

namespace tlp::graph {

namespace {

// Duplicate edges are kept (multigraph semantics): replicas must preserve the
// paper datasets' *edge counts*, which drive traversal work and traffic, and a
// repeated neighbor simply contributes twice to the aggregation — every kernel
// strategy handles that identically.
constexpr BuildOptions kGenBuild{.dedup = false, .drop_self_loops = true};

// The edge draw of power_law, whose arguments it has checked. Its draw state
// (weights, guide table, labels, in-degrees) is freed on return, before
// build_csr allocates.
std::vector<Edge> chung_lu_edges(VertexId n, EdgeOffset m, double alpha,
                                 Rng& rng, EdgeOffset max_degree) {
  // Chung–Lu: endpoint i drawn with probability proportional to
  // w_i = (i+1)^(-gamma), gamma = 1/(alpha-1). Cumulative weights + binary
  // search keeps the generator exact for any gamma.
  const double gamma = 1.0 / (alpha - 1.0);
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> cum(un);
  double total = 0.0;
  for (VertexId i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i) + 1.0, -gamma);
    cum[static_cast<std::size_t>(i)] = total;
  }
  // Guide table (Chen & Asau): bucket() is monotone and guide[b] counts the
  // cum entries whose bucket is below b, so for b = bucket(u) the first
  // entry above u lies in [guide[b], guide[b+1]]. Searching only there
  // returns the index a search of the whole array would, for every u.
  const double scale = static_cast<double>(n) / total;
  const auto bucket = [&](double x) {
    return std::min(static_cast<std::size_t>(x * scale), un - 1);
  };
  std::vector<std::size_t> guide(un + 1, 0);
  for (const double c : cum) guide[bucket(c) + 1]++;
  for (std::size_t b = 1; b <= un; ++b) guide[b] += guide[b - 1];
  auto draw = [&]() -> VertexId {
    const double u = rng.next_double() * total;
    const std::size_t b = bucket(u);
    const auto first = cum.begin() + static_cast<std::ptrdiff_t>(guide[b]);
    const auto last = cum.begin() + static_cast<std::ptrdiff_t>(guide[b + 1]);
    const auto it = std::upper_bound(first, last, u);
    return static_cast<VertexId>(std::min<std::ptrdiff_t>(
        it - cum.begin(), static_cast<std::ptrdiff_t>(n) - 1));
  };
  // Relabel through a random permutation: Chung–Lu ranks are degree-sorted,
  // and real datasets do not store vertices in degree order — without the
  // shuffle every hub would sit in one contiguous id range, which is
  // adversarial for chunked workload assignment.
  std::vector<VertexId> label(static_cast<std::size_t>(n));
  for (VertexId i = 0; i < n; ++i) label[static_cast<std::size_t>(i)] = i;
  for (VertexId i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(label[static_cast<std::size_t>(i)], label[j]);
  }
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  std::vector<EdgeOffset> indeg(static_cast<std::size_t>(n), 0);
  while (static_cast<EdgeOffset>(edges.size()) < m) {
    // Skewed destinations model hub vertices; uniform sources keep the source
    // side well-mixed like real social/citation graphs. Saturated hubs are
    // redirected to a uniform destination, truncating the tail the way real
    // crawled/subsampled benchmark graphs do.
    VertexId d = label[static_cast<std::size_t>(draw())];
    if (max_degree > 0 && indeg[static_cast<std::size_t>(d)] >= max_degree) {
      d = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (max_degree > 0 && indeg[static_cast<std::size_t>(d)] >= max_degree)
        continue;
    }
    const auto s = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (s != d) {
      edges.push_back({s, d});
      indeg[static_cast<std::size_t>(d)]++;
    }
  }
  return edges;
}

}  // namespace

Csr erdos_renyi(VertexId n, EdgeOffset m, Rng& rng) {
  TLP_CHECK(n >= 2 && m >= 0);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  while (static_cast<EdgeOffset>(edges.size()) < m) {
    const auto s = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto d = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (s != d) edges.push_back({s, d});
  }
  return build_csr(n, std::move(edges), kGenBuild);
}

Csr power_law(VertexId n, EdgeOffset m, double alpha, Rng& rng,
              EdgeOffset max_degree) {
  TLP_CHECK(n >= 2 && m >= 0 && alpha > 1.0);
  // Under a cap at most max_degree * n edges fit; asking for more would
  // leave the redirect loop spinning once every vertex is saturated.
  TLP_CHECK_MSG(max_degree <= 0 || m / n + (m % n != 0 ? 1 : 0) <= max_degree,
                "power_law: m=" << m << " edges do not fit n=" << n
                                << " vertices under in-degree cap "
                                << max_degree);
  return build_csr(n, chung_lu_edges(n, m, alpha, rng, max_degree), kGenBuild);
}

Csr rmat(VertexId n, EdgeOffset m, Rng& rng, double a, double b, double c) {
  TLP_CHECK(n >= 2 && m >= 0);
  TLP_CHECK(a > 0 && b >= 0 && c >= 0 && a + b + c < 1.0);
  int scale = 0;
  while ((VertexId{1} << scale) < n) ++scale;
  const VertexId size = VertexId{1} << scale;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  while (static_cast<EdgeOffset>(edges.size()) < m) {
    VertexId src = 0, dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double u = rng.next_double();
      if (u < a) {
        // top-left quadrant: neither bit set
      } else if (u < a + b) {
        dst |= VertexId{1} << bit;
      } else if (u < a + b + c) {
        src |= VertexId{1} << bit;
      } else {
        src |= VertexId{1} << bit;
        dst |= VertexId{1} << bit;
      }
    }
    if (src != dst && src < size && dst < size) edges.push_back({src, dst});
  }
  return build_csr(size, std::move(edges), kGenBuild);
}

Csr regular_ring(VertexId n, int k) {
  TLP_CHECK(n >= 2 && k >= 1 && k < n);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (VertexId v = 0; v < n; ++v) {
    for (int j = 1; j <= k; ++j) {
      const VertexId u = static_cast<VertexId>((v - j + n) % n);
      edges.push_back({u, v});
    }
  }
  return build_csr(n, std::move(edges), kGenBuild);
}

Csr star(VertexId n) {
  TLP_CHECK(n >= 2);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (VertexId v = 1; v < n; ++v) edges.push_back({v, 0});
  return build_csr(n, std::move(edges), kGenBuild);
}

Csr path(VertexId n) {
  TLP_CHECK(n >= 2);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<VertexId>(v + 1)});
  return build_csr(n, std::move(edges), kGenBuild);
}

Csr grid2d(VertexId rows, VertexId cols) {
  TLP_CHECK(rows >= 1 && cols >= 1);
  const VertexId n = rows * cols;
  std::vector<Edge> edges;
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (r + 1 < rows) {
        edges.push_back({id(r, c), id(r + 1, c)});
        edges.push_back({id(r + 1, c), id(r, c)});
      }
      if (c + 1 < cols) {
        edges.push_back({id(r, c), id(r, c + 1)});
        edges.push_back({id(r, c + 1), id(r, c)});
      }
    }
  }
  return build_csr(n, std::move(edges), kGenBuild);
}

Csr complete(VertexId n) {
  TLP_CHECK(n >= 2);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1));
  for (VertexId s = 0; s < n; ++s)
    for (VertexId d = 0; d < n; ++d)
      if (s != d) edges.push_back({s, d});
  return build_csr(n, std::move(edges), kGenBuild);
}

}  // namespace tlp::graph
