// Tests for the tlpfuzz harness itself: the fuzz loop is deterministic and
// clean on the healthy tree, the --expect-bugs battery catches every seeded
// mutant, the minimizer shrinks failures to tiny graphs, and repro files
// round-trip bit-exactly.
#include <gtest/gtest.h>

#include <string>

#include "fuzz/case_gen.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/kernel_runners.hpp"
#include "fuzz/minimize.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"

namespace tlp::fuzz {
namespace {

TEST(CaseGen, DeterministicPerSeed) {
  Rng s1(0xabcd), s2(0xabcd);
  const CaseSpec a = generate_case(1, s1);
  const CaseSpec b = generate_case(1, s2);
  const CaseSpec c = generate_case(2, s1);  // next draw from the stream
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_NE(a.seed, c.seed);
  const graph::Csr ga = build_graph(a);
  const graph::Csr gb = build_graph(b);
  EXPECT_EQ(graph::fingerprint(ga), graph::fingerprint(gb));
}

TEST(FuzzLoop, SmallRunIsCleanAndDeterministic) {
  FuzzOptions opts;
  opts.seed = 7;
  opts.iters = 20;
  const FuzzReport r1 = run_fuzz(opts);
  EXPECT_TRUE(r1.ok()) << report_to_json(r1);
  EXPECT_EQ(r1.cases_run, 20u);
  EXPECT_GT(r1.oracle_checks, 0u);
  EXPECT_GT(r1.coverage_signatures, 0u);

  const FuzzReport r2 = run_fuzz(opts);
  EXPECT_EQ(r1.oracle_checks, r2.oracle_checks);
  EXPECT_EQ(r1.coverage_signatures, r2.coverage_signatures);
  EXPECT_EQ(r1.corpus_size, r2.corpus_size);
}

TEST(FuzzLoop, ReportSerializesToJson) {
  FuzzOptions opts;
  opts.seed = 9;
  opts.iters = 3;
  const std::string json = report_to_json(run_fuzz(opts));
  EXPECT_NE(json.find("\"cases_run\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"failures\""), std::string::npos);
}

TEST(ExpectBugs, EverySeededMutantIsCaught) {
  const ExpectBugsReport rep = run_expect_bugs();
  EXPECT_EQ(rep.mutants.size(), mutant_runners().size());
  EXPECT_TRUE(rep.all_caught());
  for (const auto& m : rep.mutants) {
    EXPECT_TRUE(m.caught) << m.name << " escaped the oracle battery";
    EXPECT_FALSE(m.caught_by.empty()) << m.name;
  }
}

TEST(ExpectBugs, RowBoundMutantMinimizesTiny) {
  // The self-check's bar: the broken row-bounds kernel's failing graph must
  // shrink to <= 8 vertices.
  const ExpectBugsReport rep = run_expect_bugs();
  bool found = false;
  for (const auto& m : rep.mutants) {
    if (m.name.find("rowbound") == std::string::npos) continue;
    found = true;
    ASSERT_TRUE(m.caught);
    EXPECT_GT(m.minimized_vertices, 0);
    EXPECT_LE(m.minimized_vertices, 8);
  }
  EXPECT_TRUE(found) << "no row-bound mutant registered";
}

TEST(Minimizer, ShrinksToMinimalWitness) {
  // Predicate: some vertex has in-degree >= 2. The minimal witness is three
  // vertices and two edges; ddmin must find exactly that from a 64-star.
  const auto pred = [](const graph::Csr& g) {
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) >= 2) return true;
    }
    return false;
  };
  const MinimizeResult r = minimize_graph(graph::star(64), pred);
  EXPECT_EQ(r.start_vertices, 64);
  EXPECT_TRUE(pred(r.graph));
  EXPECT_EQ(r.graph.num_vertices(), 3);
  EXPECT_EQ(r.graph.num_edges(), 2);
  EXPECT_GT(r.evals, 0u);
}

TEST(Minimizer, ReproRoundTripsBitExactly) {
  // Isolated tail vertices must survive the file format (the "# vertices"
  // header), since zero-degree vertices are exactly what several seeded bugs
  // need to reproduce.
  using graph::Edge;
  const graph::Csr g =
      graph::build_csr(9, {Edge{0, 1}, Edge{3, 1}, Edge{1, 3}});
  const std::string path = ::testing::TempDir() + "tlpfuzz_repro_rt.el";
  write_repro(path, g);
  const graph::Csr back = load_repro(path);
  EXPECT_EQ(back.num_vertices(), 9);
  EXPECT_EQ(graph::fingerprint(back), graph::fingerprint(g));
}

TEST(CaseGen, RingDegreeClampedAfterShrink) {
  // Regression for a crash found by a 6000-iteration campaign (seed 2026,
  // cases 4445 and 5297): mutate_case's grow/shrink arm rescales n but not
  // m, and for rings m is the lattice degree k — a shrunk ring could reach
  // build_graph with k >= n and trip regular_ring's `k < n` CHECK.
  CaseSpec c;
  c.shape = GraphShape::kRing;
  c.n = 2;
  c.m = 2;  // k == n: invalid for regular_ring, must be clamped to n-1
  const graph::Csr g = build_graph(c);
  EXPECT_EQ(g.num_vertices(), 2);
  EXPECT_EQ(g.num_edges(), 2);  // 1-regular ring on 2 vertices

  c.n = 7;
  c.m = 8;  // k > n (the second campaign failure)
  const graph::Csr g2 = build_graph(c);
  EXPECT_EQ(g2.num_vertices(), 7);
  EXPECT_EQ(g2.num_edges(), 7 * 6);  // clamped to the densest valid ring

  c.m = 0;  // degenerate low side: clamp up to k = 1
  EXPECT_EQ(build_graph(c).num_edges(), 7);
}

TEST(CaseGen, ChainWithOneVertexClampedToMinimalPath) {
  // Same campaign, case 1324: draw_shape_dims rolls chain n in [1, 200] but
  // graph::path requires n >= 2. The clamp lives in build_graph so the fuzz
  // stream itself stays bit-identical for a fixed seed.
  CaseSpec c;
  c.shape = GraphShape::kChain;
  c.n = 1;
  const graph::Csr g = build_graph(c);
  EXPECT_EQ(g.num_vertices(), 2);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Repro, CheckedInRingReproReplaysClean) {
  // The minimal witness of the ring-shrink crash, checked in under repros/.
  // The crash fired before a graph existed, so the ddmin minimizer never
  // ran on it; this file is the clamped case's graph at the smallest legal
  // ring (n=2, k=1) and pins the repro workflow end to end.
  const FuzzReport rep =
      run_repro(std::string(TLP_SOURCE_DIR) + "/repros/case_4445_ring_shrink.el",
                {});
  EXPECT_TRUE(rep.ok());
}

TEST(Repro, ReplayRunsAllModels) {
  using graph::Edge;
  const graph::Csr g = graph::build_csr(4, {Edge{0, 1}, Edge{2, 1}});
  const std::string path = ::testing::TempDir() + "tlpfuzz_repro_replay.el";
  write_repro(path, g);
  FuzzOptions opts;
  const FuzzReport rep = run_repro(path, opts);
  EXPECT_TRUE(rep.ok());
  // 4 model kinds at 2 boundary feature widths each.
  EXPECT_EQ(rep.cases_run, 8u);
}

}  // namespace
}  // namespace tlp::fuzz
