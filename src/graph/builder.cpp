#include "graph/builder.hpp"

#include "common/check.hpp"

namespace tlp::graph {

Csr build_csr(VertexId num_vertices, std::vector<Edge> edges,
              const BuildOptions& opts) {
  TLP_CHECK(num_vertices >= 0);
  for (const Edge& e : edges) {
    TLP_CHECK_MSG(e.src >= 0 && e.src < num_vertices && e.dst >= 0 &&
                      e.dst < num_vertices,
                  "edge (" << e.src << "," << e.dst << ") out of range");
  }
  const auto n = static_cast<std::size_t>(num_vertices);
  const auto kept = [&](const Edge& e) {
    return !(opts.drop_self_loops && e.src == e.dst);
  };
  // Pass 1: bucket every edge by its source (a counting sort). Symmetrized
  // reverses and added self loops go straight into their buckets. As in
  // graph::transpose, counts sit two slots up and the last bucket's is
  // skipped, so after the prefix sum by_src[s + 1] is where bucket s
  // starts: it serves as the bucket's cursor and ends as its end.
  std::vector<EdgeOffset> by_src(n + 1, 0);
  const auto count = [&](VertexId s) {
    const auto slot = static_cast<std::size_t>(s) + 2;
    if (slot <= n) by_src[slot]++;
  };
  EdgeOffset kept_edges = 0;
  for (const Edge& e : edges) {
    if (!kept(e)) continue;
    count(e.src);
    if (opts.symmetrize) count(e.dst);
    kept_edges += opts.symmetrize ? 2 : 1;
  }
  if (opts.add_self_loops) {
    for (VertexId v = 0; v < num_vertices; ++v) count(v);
    kept_edges += num_vertices;
  }
  for (std::size_t i = 2; i <= n; ++i) by_src[i] += by_src[i - 1];
  std::vector<VertexId> dsts(static_cast<std::size_t>(kept_edges));
  const auto put = [&](VertexId s, VertexId d) {
    dsts[static_cast<std::size_t>(by_src[static_cast<std::size_t>(s) + 1]++)] = d;
  };
  for (const Edge& e : edges) {
    if (!kept(e)) continue;
    put(e.src, e.dst);
    if (opts.symmetrize) put(e.dst, e.src);
  }
  if (opts.add_self_loops) {
    for (VertexId v = 0; v < num_vertices; ++v) put(v, v);
  }
  // Freed before the second |E| array, so the peak stays at one edge list
  // plus one |E| array.
  std::vector<Edge>().swap(edges);
  // Pass 2: walk the sources in increasing order and append each to its
  // destination's row, so every row comes out sorted.
  std::vector<EdgeOffset> indptr;
  std::vector<VertexId> indices;
  transpose(by_src, dsts, indptr, indices);
  std::vector<VertexId>().swap(dsts);
  if (opts.dedup) {
    // Rows are sorted, so each duplicate sits right after its first copy.
    std::size_t w = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t row_start = w;
      const auto begin = static_cast<std::size_t>(indptr[v]);
      const auto end = static_cast<std::size_t>(indptr[v + 1]);
      indptr[v] = static_cast<EdgeOffset>(row_start);
      for (std::size_t k = begin; k < end; ++k) {
        if (w == row_start || indices[w - 1] != indices[k]) indices[w++] = indices[k];
      }
    }
    indptr[n] = static_cast<EdgeOffset>(w);
    indices.resize(w);
    indices.shrink_to_fit();
  }
  return Csr(std::move(indptr), std::move(indices));
}

std::vector<Edge> to_edge_list(const Csr& pull_csr) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(pull_csr.num_edges()));
  for (VertexId v = 0; v < pull_csr.num_vertices(); ++v) {
    for (const VertexId u : pull_csr.neighbors(v)) edges.push_back({u, v});
  }
  return edges;
}

}  // namespace tlp::graph
