// Tests for the resilient serving runtime (src/serve, DESIGN.md §11):
// deterministic traffic synthesis, admission control and deadlines, the
// retry/degrade ladder under injected fault storms, batching bit-identity,
// the circuit breaker, and SLO-report accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <string>

#include "common/check.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "serve/server.hpp"
#include "sim/device.hpp"
#include "systems/partitioned.hpp"

namespace tlp::serve {
namespace {

using graph::Csr;
using tensor::Tensor;

struct World {
  Csr g;
  Tensor feat;
  models::ConvSpec spec;
};

World make_world(std::uint64_t seed = 7, graph::VertexId n = 400,
                 std::int64_t m = 2400, std::int64_t f = 8) {
  Rng rng(seed);
  World w;
  w.g = graph::power_law(n, m, 2.3, rng);
  w.feat = Tensor::random(w.g.num_vertices(), f, rng);
  w.spec = models::ConvSpec::make(models::ModelKind::kGcn, f, rng);
  return w;
}

TrafficOptions small_traffic(std::int64_t n = 24) {
  TrafficOptions t;
  t.num_requests = n;
  t.mean_interarrival_ms = 0.5;
  t.hops = 1;
  t.max_ego_vertices = 64;
  t.seed = 99;
  return t;
}

ServerOptions small_server() {
  ServerOptions s;
  s.queue_capacity = 16;
  s.max_batch = 4;
  s.batch_window_ms = 1.0;
  return s;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// --- traffic ---------------------------------------------------------------

TEST(Traffic, DeterministicFromSeed) {
  const World w = make_world();
  const auto a = generate_traffic(w.g, w.feat, small_traffic());
  const auto b = generate_traffic(w.g, w.feat, small_traffic());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query);
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);  // bitwise, not approx
    EXPECT_EQ(a[i].ego.to_global, b[i].ego.to_global);
    EXPECT_EQ(a[i].feat, b[i].feat);
  }
  TrafficOptions other = small_traffic();
  other.seed = 100;
  const auto c = generate_traffic(w.g, w.feat, other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    any_diff |= a[i].query != c[i].query || a[i].arrival_ms != c[i].arrival_ms;
  EXPECT_TRUE(any_diff) << "different seeds produced identical traffic";
}

TEST(Traffic, ArrivalsAreMonotonicAndQueriesInRange) {
  const World w = make_world();
  const auto reqs = generate_traffic(w.g, w.feat, small_traffic(64));
  double prev = 0;
  for (const Request& r : reqs) {
    EXPECT_GE(r.arrival_ms, prev);
    prev = r.arrival_ms;
    EXPECT_GE(r.query, 0);
    EXPECT_LT(r.query, w.g.num_vertices());
    // The query vertex is inside its own ego subgraph at query_local.
    ASSERT_LT(static_cast<std::size_t>(r.query_local),
              r.ego.to_global.size());
    EXPECT_EQ(r.ego.to_global[static_cast<std::size_t>(r.query_local)],
              r.query);
    EXPECT_EQ(r.feat.rows(), r.ego.csr.num_vertices());
  }
}

TEST(Traffic, ZipfSkewsPopularity) {
  const World w = make_world();
  TrafficOptions t = small_traffic(256);
  t.zipf_alpha = 1.2;
  const auto reqs = generate_traffic(w.g, w.feat, t);
  std::map<graph::VertexId, int> hist;
  for (const Request& r : reqs) ++hist[r.query];
  int hottest = 0;
  for (const auto& [v, c] : hist) hottest = std::max(hottest, c);
  // 256 uniform draws over 400 vertices would make a count of 8+ for any
  // single vertex vanishingly unlikely; Zipf 1.2 concentrates far harder.
  EXPECT_GE(hottest, 8);
}

TEST(Traffic, EgoSubgraphRespectsCapAndHops) {
  const World w = make_world();
  const graph::LocalGraph ego = ego_subgraph(w.g, 5, 2, 10);
  EXPECT_LE(ego.csr.num_vertices(), 10);
  const graph::LocalGraph zero_hop = ego_subgraph(w.g, 5, 0, 10);
  EXPECT_EQ(zero_hop.csr.num_vertices(), 1);
  EXPECT_EQ(zero_hop.to_global[0], 5);
  EXPECT_THROW((void)ego_subgraph(w.g, -1, 1, 10), CheckError);
  EXPECT_THROW((void)ego_subgraph(w.g, w.g.num_vertices(), 1, 10), CheckError);
  EXPECT_THROW((void)ego_subgraph(w.g, 5, -1, 10), CheckError);
  EXPECT_THROW((void)ego_subgraph(w.g, 5, 1, 0), CheckError);
}

/// Ego extraction over a |V|-sized visited mask and graph::induced_subgraph:
/// the reference the O(ego) extraction must reproduce byte for byte.
graph::LocalGraph reference_ego(const Csr& g, graph::VertexId query, int hops,
                                std::int64_t max_vertices) {
  std::vector<bool> keep(static_cast<std::size_t>(g.num_vertices()), false);
  keep[static_cast<std::size_t>(query)] = true;
  std::int64_t kept = 1;
  std::vector<graph::VertexId> frontier{query};
  for (int h = 0; h < hops && !frontier.empty() && kept < max_vertices; ++h) {
    std::vector<graph::VertexId> next;
    for (const graph::VertexId v : frontier) {
      for (const graph::VertexId u : g.neighbors(v)) {
        if (kept >= max_vertices) break;
        if (!keep[static_cast<std::size_t>(u)]) {
          keep[static_cast<std::size_t>(u)] = true;
          ++kept;
          next.push_back(u);
        }
      }
      if (kept >= max_vertices) break;
    }
    frontier = std::move(next);
  }
  return graph::induced_subgraph(g, keep);
}

/// Expects `got` to be `want`: the same vertex set, owned count and CSR.
void expect_same_ego(const graph::LocalGraph& got,
                     const graph::LocalGraph& want) {
  EXPECT_EQ(got.to_global, want.to_global);
  EXPECT_EQ(got.num_owned, want.num_owned);
  EXPECT_TRUE(std::ranges::equal(got.csr.indptr(), want.csr.indptr()));
  EXPECT_TRUE(std::ranges::equal(got.csr.indices(), want.csr.indices()));
}

/// The query's position in `ego`'s id-ordered vertex set.
graph::VertexId local_id(const graph::LocalGraph& ego, graph::VertexId query) {
  const auto it = std::ranges::find(ego.to_global, query);
  return static_cast<graph::VertexId>(it - ego.to_global.begin());
}

TEST(Traffic, EgoSubgraphMatchesInducedSubgraph) {
  std::vector<Csr> graphs;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    graphs.push_back(graph::power_law(300, 2400, 2.1, rng));
  }
  {
    // A multigraph with self-loops: duplicate edges must survive relabeling.
    Rng rng(4);
    std::vector<graph::Edge> edges;
    for (int i = 0; i < 600; ++i) {
      edges.push_back({static_cast<graph::VertexId>(rng.next_below(60)),
                       static_cast<graph::VertexId>(rng.next_below(60))});
    }
    graphs.push_back(graph::build_csr(60, std::move(edges), {.dedup = false}));
  }
  {
    // The same kind of multigraph with every row shuffled, as Csr's
    // constructor (and read_binary_csr) accept it: the ego's rows must still
    // come out sorted.
    const Csr& multi = graphs.back();
    std::vector<graph::EdgeOffset> indptr(multi.indptr().begin(),
                                          multi.indptr().end());
    std::vector<graph::VertexId> indices(multi.indices().begin(),
                                         multi.indices().end());
    Rng rng(5);
    for (std::size_t v = 0; v + 1 < indptr.size(); ++v) {
      const std::span<graph::VertexId> row =
          std::span(indices).subspan(static_cast<std::size_t>(indptr[v]),
                                     static_cast<std::size_t>(multi.degree(
                                         static_cast<graph::VertexId>(v))));
      for (std::size_t i = row.size(); i > 1; --i) {
        std::swap(row[i - 1], row[rng.next_below(i)]);
      }
    }
    graphs.emplace_back(std::move(indptr), std::move(indices));
    ASSERT_FALSE(graphs.back().rows_sorted());
  }
  for (const Csr& g : graphs) {
    graph::VertexId hub = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) > g.degree(hub)) hub = v;
    }
    // Half the hub's row: its first hop stops partway through the row.
    const std::int64_t mid_row = g.degree(hub) / 2;
    ASSERT_GT(mid_row, 1);
    struct Case {
      graph::VertexId query;
      int hops;
      std::int64_t cap;
      graph::LocalGraph want;
    };
    std::vector<Case> cases;
    for (const graph::VertexId q : {graph::VertexId{0}, hub,
                                    g.num_vertices() - 1}) {
      for (int hops = 0; hops <= 3; ++hops) {
        for (const std::int64_t cap :
             {std::int64_t{1}, std::int64_t{2}, mid_row, std::int64_t{37},
              std::int64_t{512}}) {
          cases.push_back({q, hops, cap, reference_ego(g, q, hops, cap)});
        }
      }
    }
    // One extractor runs every case, largest ego first, so each query finds
    // the table and the row scratch dirty from a larger one.
    std::ranges::stable_sort(cases, std::greater<>(), [](const Case& c) {
      return c.want.to_global.size();
    });
    EgoExtractor egos(g);
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << "query " << c.query << " hops "
                                      << c.hops << " cap " << c.cap);
      expect_same_ego(ego_subgraph(g, c.query, c.hops, c.cap), c.want);
      graph::VertexId query_local = -1;
      expect_same_ego(egos.extract(c.query, c.hops, c.cap, &query_local),
                      c.want);
      EXPECT_EQ(query_local, local_id(c.want, c.query));
      EXPECT_TRUE(std::ranges::equal(egos.vertices(c.query, c.hops, c.cap),
                                     c.want.to_global));
    }
  }
}

// Every request generate_traffic builds through its one reused extractor is
// the reference ego of its query, field by field, on a graph whose hubs make
// the cap bind and whose egos overlap.
TEST(Traffic, GeneratedRequestsMatchReferenceEgos) {
  Rng rng(8);
  const Csr g = graph::power_law(2000, 16000, 1.9, rng);
  const Tensor feat = Tensor::random(g.num_vertices(), 4, rng);
  ASSERT_GT(g.max_degree(), 200);
  TrafficOptions t = small_traffic(300);
  t.hops = 2;
  t.max_ego_vertices = 96;
  const auto reqs = generate_traffic(g, feat, t);
  ASSERT_EQ(reqs.size(), 300u);
  std::size_t capped = 0;
  for (const Request& r : reqs) {
    SCOPED_TRACE(testing::Message() << "req " << r.id << " query " << r.query);
    const graph::LocalGraph want =
        reference_ego(g, r.query, t.hops, t.max_ego_vertices);
    expect_same_ego(r.ego, want);
    EXPECT_EQ(r.query_local, local_id(want, r.query));
    const Tensor rows = gather_rows(feat, want.to_global);
    ASSERT_EQ(r.feat.rows(), rows.rows());
    ASSERT_EQ(r.feat.cols(), rows.cols());
    EXPECT_EQ(std::memcmp(r.feat.flat().data(), rows.flat().data(),
                          rows.flat().size_bytes()),
              0);
    capped += want.to_global.size() ==
              static_cast<std::size_t>(t.max_ego_vertices);
  }
  // Both kinds of ego occur: capped ones around hubs and small ones.
  EXPECT_GT(capped, 0u);
  EXPECT_LT(capped, reqs.size());
}

// Regression (ISSUE 10): the seeded permutation must re-derive identically
// at the degenerate vertex counts. n == 1 has zero Fisher–Yates swaps but
// every draw still consumes its one variate and returns vertex 0.
TEST(Traffic, QueryStreamSingleVertexIsStable) {
  for (const double alpha : {0.0, 0.8}) {
    Rng rng_a(99), rng_b(99);
    const QueryStream a(1, alpha, rng_a);
    const QueryStream b(1, alpha, rng_b);
    EXPECT_EQ(a.num_vertices(), 1);
    EXPECT_EQ(b.num_vertices(), 1);
    Rng draws(7);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a.draw(draws), 0);
    // Construction consumed identical rng state for both streams.
    EXPECT_EQ(rng_a.next_below(1u << 20), rng_b.next_below(1u << 20));
  }
}

// Regression (ISSUE 10): an empty vertex set constructs (consuming zero rng
// draws, so downstream seed sequences are unperturbed) but draw() fails a
// check in every build mode instead of hitting the empty-range UB of
// Rng::next_below(0).
TEST(Traffic, QueryStreamEmptyVertexSetConstructsButCannotDraw) {
  Rng rng(3);
  const QueryStream empty(0, 0.8, rng);
  EXPECT_EQ(empty.num_vertices(), 0);
  Rng draws(7);
  EXPECT_THROW((void)empty.draw(draws), CheckError);
  // Construction left the caller's rng untouched.
  Rng fresh(3);
  EXPECT_EQ(rng.next_below(1u << 20), fresh.next_below(1u << 20));
  // Negative counts stay rejected.
  Rng neg(3);
  EXPECT_THROW(QueryStream(-1, 0.8, neg), CheckError);
}

// --- serving: happy path ---------------------------------------------------

TEST(Server, FaultFreeServesEverythingOk) {
  const World w = make_world();
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic());
  Server server(small_server());
  const ServeResult res = server.run(traffic, w.spec);
  ASSERT_EQ(res.responses.size(), traffic.size());
  EXPECT_EQ(res.report.ok, res.report.total);
  EXPECT_EQ(res.report.retried, 0);
  EXPECT_EQ(res.report.degraded, 0);
  EXPECT_EQ(res.report.rejected, 0);
  EXPECT_EQ(res.report.failed, 0);
  EXPECT_EQ(res.report.unaccounted, 0);
  EXPECT_GT(res.report.p50_ms, 0);
  EXPECT_GE(res.report.p99_ms, res.report.p50_ms);
  for (const Response& r : res.responses) {
    EXPECT_TRUE(r.served());
    EXPECT_EQ(r.direct_attempts, 1);
    EXPECT_FALSE(r.output.empty());
    EXPECT_GE(r.latency_ms, 0);
  }
}

TEST(Server, BatchCompositionDoesNotChangeServedBits) {
  const World w = make_world();
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic());
  ServerOptions one = small_server();
  one.max_batch = 1;
  ServerOptions eight = small_server();
  eight.max_batch = 8;
  Server sa(one);
  Server sb(eight);
  const ServeResult ra = sa.run(traffic, w.spec);
  const ServeResult rb = sb.run(traffic, w.spec);
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    ASSERT_TRUE(ra.responses[i].served());
    ASSERT_TRUE(rb.responses[i].served());
    EXPECT_TRUE(same_bits(ra.responses[i].output, rb.responses[i].output))
        << "request " << i << " served bits depend on batch size";
  }
}

// --- admission control and deadlines ---------------------------------------

TEST(Server, BoundedQueueShedsOverload) {
  const World w = make_world();
  TrafficOptions t = small_traffic(64);
  t.arrival = ArrivalProcess::kBursty;
  t.burst_len = 32;
  t.burst_speedup = 64.0;
  t.mean_interarrival_ms = 1.0;
  const auto traffic = generate_traffic(w.g, w.feat, t);
  ServerOptions s = small_server();
  s.queue_capacity = 4;
  s.max_batch = 2;
  Server server(s);
  const ServeResult res = server.run(traffic, w.spec);
  EXPECT_GT(res.report.rejected, 0) << "a 4-deep queue must shed this burst";
  EXPECT_EQ(res.report.unaccounted, 0);
  for (const Response& r : res.responses) {
    if (r.outcome == Outcome::kRejected) {
      EXPECT_TRUE(r.output.empty());
      EXPECT_FALSE(r.error.empty());
    }
  }
}

TEST(Server, DeadlinesShedStaleQueuedRequests) {
  const World w = make_world();
  TrafficOptions t = small_traffic(48);
  t.arrival = ArrivalProcess::kBursty;
  t.burst_len = 24;
  t.burst_speedup = 64.0;
  t.deadline_ms = 2.0;
  const auto traffic = generate_traffic(w.g, w.feat, t);
  ServerOptions s = small_server();
  s.max_batch = 2;
  Server server(s);
  const ServeResult res = server.run(traffic, w.spec);
  std::int64_t expired = 0;
  for (const Response& r : res.responses) {
    if (r.outcome == Outcome::kRejected && r.deadline_missed) ++expired;
  }
  EXPECT_GT(expired, 0) << "a 2ms deadline must expire deep-queued requests";
  EXPECT_EQ(res.report.unaccounted, 0);
}

// --- fault storms: retry, degrade, fail ------------------------------------

/// Regression: a 2-failure OOM burst is absorbed by direct retries.
TEST(Server, ShortOomBurstIsRetriedBitIdentically) {
  const World w = make_world();
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic(32));
  ServerOptions s = small_server();
  StormEvent storm;
  storm.at_request = 8;
  storm.plan.oom_every = 200;
  storm.plan.oom_burst_len = 2;
  s.storms = {storm};
  Server server(s);
  const ServeResult res = server.run(traffic, w.spec);
  EXPECT_GT(res.report.retried, 0);
  EXPECT_EQ(res.report.failed, 0);
  EXPECT_EQ(res.report.unaccounted, 0);

  Server clean(small_server());
  const ServeResult base = clean.run(traffic, w.spec);
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    ASSERT_TRUE(res.responses[i].served());
    EXPECT_TRUE(same_bits(res.responses[i].output, base.responses[i].output))
        << "request " << i;
  }
}

/// Regression with a checked-in seed (world 7 / traffic 99): a 4-deep OOM
/// burst exhausts the direct ladder (1 batched + 2 retry attempts) and lands
/// on the partitioned fallback, whose output must be bit-identical both to
/// the fault-free serve AND to running systems::run_partitioned directly on
/// the request's ego subgraph.
TEST(Server, RepeatedOomDegradesToPartitionedBitIdentically) {
  const World w = make_world(7);
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic(32));
  ServerOptions s = small_server();
  StormEvent storm;
  storm.at_request = 8;
  storm.plan.oom_every = 200;
  storm.plan.oom_burst_len = 4;
  s.storms = {storm};
  Server server(s);
  const ServeResult res = server.run(traffic, w.spec);
  EXPECT_GT(res.report.degraded, 0) << "4-deep burst must force the fallback";
  EXPECT_EQ(res.report.failed, 0);
  EXPECT_EQ(res.report.unaccounted, 0);

  Server clean(small_server());
  const ServeResult base = clean.run(traffic, w.spec);

  bool checked_direct = false;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    const Response& r = res.responses[i];
    ASSERT_TRUE(r.served());
    EXPECT_TRUE(same_bits(r.output, base.responses[i].output))
        << "request " << i;
    if (r.outcome != Outcome::kDegraded) continue;
    EXPECT_GT(r.fallback_attempts, 0);
    EXPECT_GE(r.partitions, 2);
    // The served row equals a direct partitioned run over the same subgraph
    // with the same part count.
    const Request& req = traffic[i];
    systems::TlpgnnSystem sys;
    sim::Device dev;
    const systems::RunResult direct = systems::run_partitioned(
        sys, dev, req.ego.csr, req.feat, w.spec, r.partitions);
    const auto row = direct.output.row(req.query_local);
    ASSERT_EQ(static_cast<std::size_t>(row.size()), r.output.size());
    EXPECT_EQ(std::memcmp(row.data(), r.output.data(),
                          r.output.size() * sizeof(float)),
              0)
        << "degraded row differs from a direct run_partitioned";
    checked_direct = true;
  }
  EXPECT_TRUE(checked_direct);
}

TEST(Server, UnrecoverableStormFailsWithProvenance) {
  const World w = make_world();
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic(16));
  ServerOptions s = small_server();
  StormEvent storm;
  storm.at_request = 4;
  storm.plan.launch_every = 4;
  storm.plan.launch_burst_len = 4;  // period == burst: every launch fails
  s.storms = {storm};
  Server server(s);
  const ServeResult res = server.run(traffic, w.spec);
  EXPECT_GT(res.report.failed, 0);
  EXPECT_EQ(res.report.unaccounted, 0);
  bool saw_provenance = false;
  for (const Response& r : res.responses) {
    if (r.outcome != Outcome::kFailed) continue;
    // Every Failed response explains itself: either the injected-fault
    // provenance from the last attempt, or the breaker-skip message when the
    // open circuit let no attempt run at all.
    EXPECT_FALSE(r.error.empty()) << "request " << r.id;
    if (r.error.find("launch_every") != std::string::npos) {
      EXPECT_NE(r.error.find("injected"), std::string::npos) << r.error;
      saw_provenance = true;
    } else {
      EXPECT_NE(r.error.find("circuit breaker"), std::string::npos) << r.error;
    }
  }
  EXPECT_TRUE(saw_provenance)
      << "no Failed response carried FaultPlan provenance";
}

TEST(Server, StormRecoveryRestoresOkService) {
  const World w = make_world();
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic(48));
  ServerOptions s = small_server();
  StormEvent on;
  on.at_request = 8;
  on.plan.oom_every = 100;
  on.plan.oom_burst_len = 3;
  s.storms = {on, {24, sim::FaultPlan{}}};  // disarm at request 24
  Server server(s);
  const ServeResult res = server.run(traffic, w.spec);
  EXPECT_EQ(res.report.unaccounted, 0);
  // Everything after the disarm point is served clean on the first attempt.
  for (std::size_t i = 24; i < traffic.size(); ++i) {
    EXPECT_EQ(res.responses[i].outcome, Outcome::kOk) << "request " << i;
  }
}

// --- determinism and reporting ---------------------------------------------

TEST(Server, StormReplayIsByteIdentical) {
  const World w = make_world();
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic(32));
  ServerOptions s = small_server();
  StormEvent storm;
  storm.at_request = 6;
  storm.plan.oom_every = 64;
  storm.plan.oom_burst_len = 4;
  s.storms = {storm};
  Server a(s);
  Server b(s);
  const ServeResult ra = a.run(traffic, w.spec);
  const ServeResult rb = b.run(traffic, w.spec);
  EXPECT_EQ(ra.report.to_json().dump(), rb.report.to_json().dump());
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    EXPECT_EQ(ra.responses[i].outcome, rb.responses[i].outcome);
    EXPECT_EQ(ra.responses[i].latency_ms, rb.responses[i].latency_ms);
    EXPECT_TRUE(same_bits(ra.responses[i].output, rb.responses[i].output));
  }
  EXPECT_EQ(ra.report.output_digest, rb.report.output_digest);
}

TEST(Server, SloReportAccountsForEveryRequest) {
  const World w = make_world();
  TrafficOptions t = small_traffic(64);
  t.arrival = ArrivalProcess::kBursty;
  t.burst_len = 16;
  t.burst_speedup = 32.0;
  t.deadline_ms = 5.0;
  const auto traffic = generate_traffic(w.g, w.feat, t);
  ServerOptions s = small_server();
  s.queue_capacity = 8;
  s.max_batch = 2;
  StormEvent storm;
  storm.at_request = 10;
  storm.plan.oom_every = 50;
  storm.plan.oom_burst_len = 3;
  s.storms = {storm};
  Server server(s);
  const ServeResult res = server.run(traffic, w.spec);
  const SloReport& r = res.report;
  EXPECT_EQ(r.total, 64);
  EXPECT_EQ(r.ok + r.retried + r.degraded + r.rejected + r.failed, r.total);
  EXPECT_EQ(r.unaccounted, 0);
  const report::Json j = r.to_json();
  EXPECT_EQ(j.at("total").as_int(), 64);
  EXPECT_EQ(j.at("unaccounted").as_int(), 0);
}

TEST(Server, RejectsMalformedInputs) {
  const World w = make_world();
  ServerOptions bad = small_server();
  bad.queue_capacity = 0;
  EXPECT_THROW(Server{bad}, CheckError);
  bad = small_server();
  bad.max_batch = 32;  // larger than the queue bound
  bad.queue_capacity = 8;
  EXPECT_THROW(Server{bad}, CheckError);
  bad = small_server();
  bad.storms = {{10, sim::FaultPlan{}}, {4, sim::FaultPlan{}}};  // unsorted
  EXPECT_THROW(Server{bad}, CheckError);

  Server server(small_server());
  models::ConvSpec weighted = w.spec;
  weighted.edge_weights.assign(static_cast<std::size_t>(w.g.num_edges()),
                               1.0f);
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic(2));
  EXPECT_THROW((void)server.run(traffic, weighted), CheckError);
}

// --- policies ---------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyWithBoundedJitter) {
  RetryPolicy p;
  p.base_delay_ms = 1.0;
  p.jitter_frac = 0.25;
  Rng rng(3);
  for (int retry = 0; retry < 5; ++retry) {
    const double nominal = std::pow(2.0, retry);
    for (int trial = 0; trial < 16; ++trial) {
      const double d = p.delay_ms(retry, rng);
      EXPECT_GE(d, nominal * 0.75);
      EXPECT_LE(d, nominal * 1.25);
    }
  }
  p.jitter_frac = 0;
  EXPECT_EQ(p.delay_ms(2, rng), 4.0);  // exact without jitter
}

TEST(CircuitBreaker, OpensAfterThresholdAndRecloses) {
  BreakerPolicy pol;
  pol.failure_threshold = 3;
  pol.cooldown_ms = 10.0;
  CircuitBreaker br(pol);
  EXPECT_TRUE(br.allow(0));
  br.record_failure(1);
  br.record_failure(2);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  br.record_failure(3);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opens(), 1);
  EXPECT_FALSE(br.allow(4));        // cooling down
  EXPECT_TRUE(br.allow(13.5));      // cooldown elapsed -> half-open trial
  EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
  br.record_failure(14);            // trial failed -> straight back open
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opens(), 2);
  EXPECT_FALSE(br.allow(20));
  EXPECT_TRUE(br.allow(24.5));
  br.record_success();              // trial succeeded -> closed
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(br.allow(25));
}

TEST(CompareServed, SkipsOneSidedRequestsAndComparesBitwise) {
  const auto response = [](std::int64_t id, Outcome outcome,
                           std::vector<float> output) {
    Response r;
    r.id = id;
    r.outcome = outcome;
    r.output = std::move(output);
    return r;
  };
  const float nan = std::nanf("");
  const std::vector<Response> a{
      response(0, Outcome::kOk, {1.0f, 2.0f}),
      response(1, Outcome::kFailed, {}),  // served only in b: skipped
      response(2, Outcome::kRetried, {1.0f}),
      response(3, Outcome::kDegraded, {-0.0f}),
      response(4, Outcome::kOk, {3.0f}),  // served only in a: skipped
      response(5, Outcome::kOk, {nan}),
  };
  const std::vector<Response> b{
      response(0, Outcome::kDegraded, {1.0f, 2.0f}),
      response(1, Outcome::kOk, {9.0f}),
      response(2, Outcome::kOk, {1.0f, 0.0f}),  // length differs
      response(3, Outcome::kOk, {0.0f}),        // == but not bitwise equal
      response(4, Outcome::kRejected, {}),
      response(5, Outcome::kRetried, {nan}),    // != but bitwise equal
  };
  const ServedComparison c = compare_served(a, b);
  EXPECT_EQ(c.served_in_both, 4);
  EXPECT_EQ(c.mismatched, (std::vector<std::int64_t>{2, 3}));
  EXPECT_THROW((void)compare_served(a, {}), CheckError);
}

TEST(Outcomes, NamesAreStable) {
  EXPECT_STREQ(outcome_name(Outcome::kOk), "ok");
  EXPECT_STREQ(outcome_name(Outcome::kRetried), "retried");
  EXPECT_STREQ(outcome_name(Outcome::kDegraded), "degraded");
  EXPECT_STREQ(outcome_name(Outcome::kRejected), "rejected");
  EXPECT_STREQ(outcome_name(Outcome::kFailed), "failed");
}

}  // namespace
}  // namespace tlp::serve
