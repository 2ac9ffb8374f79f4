// Unit tests for the CSR container and the edge-list builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"

namespace tlp::graph {
namespace {

Csr diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (pull CSR: row v = in-neighbors)
  return build_csr(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

TEST(Csr, BasicShape) {
  const Csr g = diamond();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 1.0);
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_EQ(g.degree(3), 2);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(Csr, NeighborsAreSources) {
  const Csr g = diamond();
  const auto n3 = g.neighbors(3);
  ASSERT_EQ(n3.size(), 2u);
  EXPECT_EQ(n3[0], 1);
  EXPECT_EQ(n3[1], 2);
}

TEST(Csr, RowsSortedAfterBuild) {
  const Csr g = diamond();
  EXPECT_TRUE(g.rows_sorted());
}

TEST(Csr, ReversedFlipsDirections) {
  const Csr g = diamond();
  const Csr r = g.reversed();
  EXPECT_EQ(r.num_edges(), g.num_edges());
  // In the reverse graph, row 0 holds 0's out-neighbors: 1 and 2.
  const auto n0 = r.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1);
  EXPECT_EQ(n0[1], 2);
  EXPECT_TRUE(r.rows_sorted());
}

TEST(Csr, DoubleReverseIsIdentity) {
  const Csr g = diamond();
  const Csr rr = g.reversed().reversed();
  EXPECT_EQ(std::vector(g.indptr().begin(), g.indptr().end()),
            std::vector(rr.indptr().begin(), rr.indptr().end()));
  EXPECT_EQ(std::vector(g.indices().begin(), g.indices().end()),
            std::vector(rr.indices().begin(), rr.indices().end()));
}

TEST(Csr, ValidateRejectsBadIndptr) {
  EXPECT_THROW(Csr({0, 2, 1}, {0, 0}), CheckError);       // non-monotone
  EXPECT_THROW(Csr({0, 1}, {5}), CheckError);             // index out of range
  EXPECT_THROW(Csr({0, 2}, {0}), CheckError);             // length mismatch
}

TEST(Csr, EmptyGraph) {
  const Csr g = build_csr(3, {});
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Builder, RejectsOutOfRangeEdges) {
  EXPECT_THROW(build_csr(2, {{0, 5}}), CheckError);
  EXPECT_THROW(build_csr(2, {{-1, 0}}), CheckError);
}

TEST(Builder, Dedup) {
  const Csr g = build_csr(2, {{0, 1}, {0, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1);
  const Csr multi = build_csr(2, {{0, 1}, {0, 1}}, {.dedup = false});
  EXPECT_EQ(multi.num_edges(), 2);
}

TEST(Builder, SelfLoopOptions) {
  const Csr dropped = build_csr(2, {{0, 0}, {0, 1}}, {.drop_self_loops = true});
  EXPECT_EQ(dropped.num_edges(), 1);
  const Csr added = build_csr(2, {{0, 1}}, {.add_self_loops = true});
  EXPECT_EQ(added.num_edges(), 3);
  EXPECT_EQ(added.degree(0), 1);  // just (0,0)
  EXPECT_EQ(added.degree(1), 2);  // (0,1) and (1,1)
}

TEST(Builder, Symmetrize) {
  const Csr g = build_csr(3, {{0, 1}, {1, 2}}, {.symmetrize = true});
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Builder, EdgeListRoundTrip) {
  const Csr g = diamond();
  const auto edges = to_edge_list(g);
  const Csr g2 = build_csr(4, edges);
  EXPECT_EQ(std::vector(g.indices().begin(), g.indices().end()),
            std::vector(g2.indices().begin(), g2.indices().end()));
}

// The comparison-sort builder: the cleanup passes in order, then a sort by
// (dst, src) and std::unique. build_csr must match it bit for bit.
Csr oracle_csr(VertexId n, std::vector<Edge> edges, const BuildOptions& opts) {
  if (opts.drop_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }
  if (opts.symmetrize) {
    const std::size_t m = edges.size();
    edges.reserve(2 * m);
    for (std::size_t i = 0; i < m; ++i)
      edges.push_back({edges[i].dst, edges[i].src});
  }
  if (opts.add_self_loops) {
    for (VertexId v = 0; v < n; ++v) edges.push_back({v, v});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
  });
  if (opts.dedup) edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<EdgeOffset> indptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> indices;
  for (const Edge& e : edges) {
    indptr[static_cast<std::size_t>(e.dst) + 1]++;
    indices.push_back(e.src);
  }
  for (std::size_t i = 1; i < indptr.size(); ++i) indptr[i] += indptr[i - 1];
  return Csr(std::move(indptr), std::move(indices));
}

void expect_same(const Csr& got, const Csr& want) {
  EXPECT_EQ(std::vector(got.indptr().begin(), got.indptr().end()),
            std::vector(want.indptr().begin(), want.indptr().end()));
  EXPECT_EQ(std::vector(got.indices().begin(), got.indices().end()),
            std::vector(want.indices().begin(), want.indices().end()));
}

TEST(Builder, MatchesComparisonSortOracle) {
  const auto by_dst_src = [](const Edge& a, const Edge& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
  };
  Rng rng(17);
  for (const VertexId n : {0, 1, 2, 7, 300}) {
    const auto pick = [&](VertexId below) {
      return static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(below)));
    };
    std::vector<std::vector<Edge>> lists{{}};
    if (n > 0) {
      // Uniform edges, with self loops wherever they land.
      std::vector<Edge> uniform(static_cast<std::size_t>(8 * n + 5));
      for (Edge& e : uniform) e = {pick(n), pick(n)};
      // Heavy duplicates: every endpoint among the first three ids, a hub
      // row fed from a handful of sources, and vertex 0 feeding every row
      // twice, so neighbouring rows end and start with the same source.
      std::vector<Edge> dups(static_cast<std::size_t>(6 * n + 20));
      const VertexId few = std::min<VertexId>(n, 3);
      for (Edge& e : dups) e = {pick(few), pick(few)};
      for (int i = 0; i < 40; ++i) dups.push_back({pick(few), n - 1});
      for (VertexId v = 0; v < n; ++v) dups.insert(dups.end(), 2, {0, v});
      std::vector<Edge> sorted = uniform;
      std::sort(sorted.begin(), sorted.end(), by_dst_src);
      std::vector<Edge> reverse_sorted(sorted.rbegin(), sorted.rend());
      lists.insert(lists.end(), {uniform, dups, sorted, reverse_sorted});
    }
    for (const std::vector<Edge>& edges : lists) {
      for (int bits = 0; bits < 16; ++bits) {
        const BuildOptions opts{.dedup = (bits & 1) != 0,
                                .drop_self_loops = (bits & 2) != 0,
                                .add_self_loops = (bits & 4) != 0,
                                .symmetrize = (bits & 8) != 0};
        SCOPED_TRACE("n=" + std::to_string(n) + " |E|=" +
                     std::to_string(edges.size()) + " options=" +
                     std::to_string(bits));
        const Csr got = build_csr(n, edges, opts);
        expect_same(got, oracle_csr(n, edges, opts));
        // reversed() runs the same scatter over rows already in order.
        std::vector<Edge> flipped;
        for (const Edge& e : to_edge_list(got)) flipped.push_back({e.dst, e.src});
        expect_same(got.reversed(), oracle_csr(n, flipped, {.dedup = false}));
      }
    }
  }
}

TEST(Csr, SummaryMentionsCounts) {
  const std::string s = diamond().summary();
  EXPECT_NE(s.find("|V|=4"), std::string::npos);
  EXPECT_NE(s.find("|E|=4"), std::string::npos);
}

}  // namespace
}  // namespace tlp::graph
