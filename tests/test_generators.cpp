// Tests for the synthetic graph generators, including the degree-skew
// properties the dataset replicas rely on.
#include <gtest/gtest.h>

#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"

namespace tlp::graph {
namespace {

TEST(ErdosRenyi, SizeAndNoSelfLoops) {
  // (3, 20) asks for more edges than the 6 distinct non-loop pairs: the
  // generator keeps duplicates, so it still returns all 20.
  const std::pair<VertexId, EdgeOffset> inputs[] = {{100, 500}, {3, 20}};
  for (const auto& [n, m] : inputs) {
    Rng rng(1);
    const Csr g = erdos_renyi(n, m, rng);
    EXPECT_EQ(g.num_vertices(), n);
    EXPECT_EQ(g.num_edges(), m);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const VertexId u : g.neighbors(v)) EXPECT_NE(u, v);
    }
  }
}

TEST(ErdosRenyi, Deterministic) {
  Rng a(9), b(9);
  const Csr g1 = erdos_renyi(50, 200, a);
  const Csr g2 = erdos_renyi(50, 200, b);
  EXPECT_EQ(std::vector(g1.indices().begin(), g1.indices().end()),
            std::vector(g2.indices().begin(), g2.indices().end()));
}

TEST(PowerLaw, SizeAndSkew) {
  Rng rng(2);
  const Csr g = power_law(2000, 20000, 2.1, rng);
  EXPECT_EQ(g.num_edges(), 20000);
  const DegreeStats s = degree_stats(g);
  EXPECT_NEAR(s.avg, 10.0, 0.01);
  // Heavy-tailed: max degree far above average, high skew.
  EXPECT_GT(s.max, 20 * static_cast<EdgeOffset>(s.avg));
  EXPECT_GT(s.gini, 0.4);
}

TEST(PowerLaw, SteeperExponentIsLessSkewed) {
  Rng r1(3), r2(3);
  const double g_heavy = degree_stats(power_law(2000, 20000, 2.05, r1)).gini;
  const double g_mild = degree_stats(power_law(2000, 20000, 3.5, r2)).gini;
  EXPECT_GT(g_heavy, g_mild);
}

TEST(PowerLaw, RejectsUnsatisfiableDegreeCap) {
  // 4 vertices capped at in-degree 5 hold at most 20 edges; asking for 100
  // must throw rather than spin once every vertex is saturated.
  Rng rng(2);
  EXPECT_THROW(power_law(4, 100, 2.1, rng, 5), CheckError);
  // Exactly full is satisfiable: every vertex ends at the cap.
  const Csr full = power_law(4, 20, 2.1, rng, 5);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(full.degree(v), 5);
}

TEST(Rmat, RoundsToPowerOfTwoAndSkewed) {
  Rng rng(4);
  const Csr g = rmat(1000, 8000, rng);
  EXPECT_EQ(g.num_vertices(), 1024);
  EXPECT_EQ(g.num_edges(), 8000);
  EXPECT_GT(degree_stats(g).gini, 0.3);
}

TEST(RegularRing, ExactDegrees) {
  const Csr g = regular_ring(10, 3);
  EXPECT_EQ(g.num_edges(), 30);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 3);
}

TEST(Star, MaxImbalance) {
  const Csr g = star(100);
  EXPECT_EQ(g.degree(0), 99);
  for (VertexId v = 1; v < 100; ++v) EXPECT_EQ(g.degree(v), 0);
}

TEST(Path, Chain) {
  const Csr g = path(5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_EQ(g.degree(4), 1);
  EXPECT_EQ(g.neighbors(3)[0], 2);
}

TEST(Grid2d, DegreesAndSymmetry) {
  const Csr g = grid2d(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  // 2*(rows*(cols-1) + cols*(rows-1)) directed edges.
  EXPECT_EQ(g.num_edges(), 2 * (3 * 3 + 4 * 2));
  // Corner has 2 in-edges, interior has 4.
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(5), 4);
}

TEST(Complete, AllPairs) {
  const Csr g = complete(5);
  EXPECT_EQ(g.num_edges(), 20);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 4);
}

// Golden structure hashes. These pin the exact bit-level output of each
// seeded generator: any change to an Rng consumption order or a tie-break
// silently invalidates every recorded fuzz repro and dataset replica, so it
// must show up here as a hard failure, not as a flaky benchmark.
TEST(GoldenHash, SeededGeneratorsAreBitStable) {
  Rng er(42), pl(42), rm(42), hub(42);
  EXPECT_EQ(fingerprint(erdos_renyi(100, 500, er)), 0xa86e7bb1c6f675ebull);
  EXPECT_EQ(fingerprint(power_law(500, 3000, 2.2, pl)),
            0xbd07bee6c74d521full);
  EXPECT_EQ(fingerprint(rmat(256, 2000, rm)), 0xf3a64740bd926c79ull);
  // Heavy skew under a cap: saturated hubs take the redirect path.
  EXPECT_EQ(fingerprint(power_law(1000, 20000, 2.05, hub, 60)),
            0x436226fe3a347dd8ull);
}

TEST(GoldenHash, DeterministicGeneratorsAreBitStable) {
  EXPECT_EQ(fingerprint(regular_ring(64, 4)), 0x3aa13f5dd336f60aull);
  EXPECT_EQ(fingerprint(star(50)), 0x41c05652f2f44976ull);
  EXPECT_EQ(fingerprint(path(50)), 0xbb90e24a28f3f146ull);
  EXPECT_EQ(fingerprint(grid2d(5, 7)), 0x3ef9afb5911735d2ull);
  EXPECT_EQ(fingerprint(complete(9)), 0xa1c6ecdc5c1fc8a4ull);
}

TEST(GoldenHash, FingerprintSeesStructure) {
  // Sanity for the digest itself: sensitive to edges, vertex count, and
  // direction; insensitive to nothing we care about.
  EXPECT_NE(fingerprint(star(50)), fingerprint(star(51)));
  EXPECT_NE(fingerprint(path(50)), fingerprint(star(50)));
  EXPECT_EQ(fingerprint(path(50)), fingerprint(path(50)));
}

TEST(DegreeHistogram, BucketsSumToVertices) {
  Rng rng(5);
  const Csr g = power_law(500, 3000, 2.3, rng);
  const auto hist = degree_histogram(g);
  std::int64_t total = 0;
  for (const auto c : hist) total += c;
  EXPECT_EQ(total, g.num_vertices());
}

}  // namespace
}  // namespace tlp::graph
