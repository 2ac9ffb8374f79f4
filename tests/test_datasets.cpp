// Tests for the dataset-replica registry (Table 4 substitutes).
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "graph/datasets.hpp"
#include "graph/stats.hpp"

namespace tlp::graph {
namespace {

TEST(Datasets, RegistryMatchesTable4) {
  const auto all = all_datasets();
  ASSERT_EQ(all.size(), 11u);
  EXPECT_STREQ(all.front().abbr, "CS");
  EXPECT_STREQ(all.back().abbr, "OT");
  // Table 4 is sorted by edge count.
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LE(all[i - 1].edges, all[i].edges);
}

TEST(Datasets, LookupByAbbr) {
  const auto& rd = dataset_by_abbr("RD");
  EXPECT_STREQ(rd.name, "Reddit");
  EXPECT_EQ(rd.edges, 114'000'000);
  EXPECT_TRUE(rd.big4);
  EXPECT_FALSE(rd.advisor_supported);
  EXPECT_THROW(dataset_by_abbr("nope"), tlp::CheckError);
}

TEST(Datasets, Big4Flags) {
  int big = 0;
  for (const auto& d : all_datasets()) big += d.big4 ? 1 : 0;
  EXPECT_EQ(big, 4);
  EXPECT_TRUE(dataset_by_abbr("CL").big4);
  EXPECT_FALSE(dataset_by_abbr("OH").big4);
}

TEST(Datasets, ScaledReplicaPreservesAvgDegree) {
  const auto& rd = dataset_by_abbr("RD");
  const Csr g = make_dataset(rd, {.max_edges = 200'000, .seed = 1});
  EXPECT_LE(g.num_edges(), 200'000);
  EXPECT_NEAR(g.avg_degree(), rd.avg_degree(), rd.avg_degree() * 0.05);
}

TEST(Datasets, SmallDatasetNotScaled) {
  const auto& cs = dataset_by_abbr("CS");
  const Csr g = make_dataset(cs, {.max_edges = 1'000'000});
  EXPECT_EQ(g.num_vertices(), cs.vertices);
  EXPECT_EQ(g.num_edges(), cs.edges);
}

TEST(Datasets, FullFlagKeepsPaperScale) {
  const auto& pd = dataset_by_abbr("PD");
  const Csr g = make_dataset(pd, {.max_edges = 10, .full = true});
  EXPECT_EQ(g.num_vertices(), pd.vertices);
  EXPECT_EQ(g.num_edges(), pd.edges);
}

TEST(Datasets, ReplicasAreDeterministicPerSeed) {
  const auto& cr = dataset_by_abbr("CR");
  const Csr a = make_dataset(cr, {.seed = 5});
  const Csr b = make_dataset(cr, {.seed = 5});
  const Csr c = make_dataset(cr, {.seed = 6});
  EXPECT_EQ(std::vector(a.indices().begin(), a.indices().end()),
            std::vector(b.indices().begin(), b.indices().end()));
  EXPECT_NE(std::vector(a.indices().begin(), a.indices().end()),
            std::vector(c.indices().begin(), c.indices().end()));
}

TEST(Datasets, GoldenFingerprintsAreSeedStable) {
  // Bit-level pin of replicas: one exact small dataset, one small scaled
  // one, and three scaled ones at 250K edges whose shapes stress the
  // Chung–Lu draw: RD's heavy skew, OH's 115K vertices, OT. Guards the
  // generators' Rng consumption order — a change here invalidates recorded
  // fuzz repros and calibration numbers.
  const Csr cs = make_dataset(dataset_by_abbr("CS"), {.seed = 42});
  EXPECT_EQ(fingerprint(cs), 0x0097db8346917113ull);
  const Csr cr =
      make_dataset(dataset_by_abbr("CR"), {.max_edges = 50'000, .seed = 42});
  EXPECT_EQ(fingerprint(cr), 0xf9d94a3dc3cf9098ull);
  const ReplicaOptions scaled{.max_edges = 250'000, .seed = 42};
  EXPECT_EQ(fingerprint(make_dataset(dataset_by_abbr("RD"), scaled)),
            0x3fa925923e9c63baull);
  EXPECT_EQ(fingerprint(make_dataset(dataset_by_abbr("OH"), scaled)),
            0xc0961bb1440991e6ull);
  EXPECT_EQ(fingerprint(make_dataset(dataset_by_abbr("OT"), scaled)),
            0x8c1048378034b7eeull);
}

TEST(Datasets, SkewOrdering) {
  // Reddit's replica must be much more skewed than the near-regular
  // molecular graphs.
  const Csr rd = make_dataset(dataset_by_abbr("RD"), {.max_edges = 100'000});
  const Csr dd = make_dataset(dataset_by_abbr("DD"), {.max_edges = 100'000});
  EXPECT_GT(degree_stats(rd).gini, degree_stats(dd).gini);
}

}  // namespace
}  // namespace tlp::graph
