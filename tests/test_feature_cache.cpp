// Tests for the pre-sampling feature cache (src/serve/feature_cache.hpp,
// DESIGN.md §12): warm-up determinism, policy ranking, hit/miss accounting
// closure, and the bit-identity contract — cached gathers and cached serving
// (including the fault-storm fallback path) produce byte-identical rows to
// the uncached path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"

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

FeatureCacheOptions presample(double ratio = 0.10) {
  FeatureCacheOptions c;
  c.policy = CachePolicy::kPresample;
  c.cache_ratio = ratio;
  return c;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// --- policy parsing --------------------------------------------------------

TEST(CachePolicyName, RoundTripsAndRejectsUnknown) {
  for (const CachePolicy p : {CachePolicy::kNone, CachePolicy::kDegree,
                              CachePolicy::kPresample}) {
    EXPECT_EQ(cache_policy_from_name(cache_policy_name(p)), p);
  }
  EXPECT_THROW((void)cache_policy_from_name("lru"), CheckError);
}

// --- warm-up / pinning -----------------------------------------------------

TEST(FeatureCache, WarmupIsDeterministicForFixedSeeds) {
  const World w = make_world();
  const TrafficOptions t = small_traffic();
  FeatureCache a(w.g, w.feat, t, presample());
  FeatureCache b(w.g, w.feat, t, presample());
  EXPECT_EQ(a.pinned_vertices(), b.pinned_vertices());

  // A different popularity permutation (traffic seed) pins a different set.
  TrafficOptions other = t;
  other.seed = 1234;
  FeatureCache c(w.g, w.feat, other, presample());
  EXPECT_NE(a.pinned_vertices(), c.pinned_vertices());
}

TEST(FeatureCache, RespectsBudgetAndPolicy) {
  const World w = make_world();
  const TrafficOptions t = small_traffic();
  const auto budget = static_cast<std::int64_t>(
      0.10 * static_cast<double>(w.g.num_vertices()) + 0.5);

  FeatureCacheOptions none;
  none.policy = CachePolicy::kNone;
  FeatureCache off(w.g, w.feat, t, none);
  EXPECT_EQ(off.stats().pinned_rows, 0);

  FeatureCacheOptions deg;
  deg.policy = CachePolicy::kDegree;
  deg.cache_ratio = 0.10;
  FeatureCache by_degree(w.g, w.feat, t, deg);
  EXPECT_EQ(by_degree.stats().pinned_rows, budget);

  FeatureCache by_freq(w.g, w.feat, t, presample(0.10));
  EXPECT_GT(by_freq.stats().pinned_rows, 0);
  EXPECT_LE(by_freq.stats().pinned_rows, budget);  // zero-score rows dropped
  for (const graph::VertexId v : by_freq.pinned_vertices()) {
    EXPECT_TRUE(by_freq.is_pinned(v));
  }
}

// The warm-up counts each query's vertex set through one reused extractor.
// With every sampled row pinned, the pin order (count desc, id asc) must be
// the order of counts taken from one-shot egos of the same draws.
TEST(FeatureCache, WarmupCountsTheOneShotEgoSets) {
  Rng rng(8);
  const Csr g = graph::power_law(2000, 16000, 1.9, rng);
  const Tensor feat = Tensor::random(g.num_vertices(), 4, rng);
  TrafficOptions t = small_traffic();
  t.hops = 2;
  t.max_ego_vertices = 96;
  FeatureCacheOptions c = presample(1.0);
  c.warmup_rounds = 2;
  const FeatureCache cache(g, feat, t, c);

  std::vector<std::int64_t> count(static_cast<std::size_t>(g.num_vertices()));
  Rng perm(t.seed);
  const QueryStream stream(g.num_vertices(), t.zipf_alpha, perm);
  Rng warm(kWarmupSeed);
  for (std::int64_t q = 0; q < c.warmup_rounds * kWarmupQueriesPerRound; ++q) {
    const graph::LocalGraph ego =
        ego_subgraph(g, stream.draw(warm), t.hops, t.max_ego_vertices);
    for (const graph::VertexId u : ego.to_global) {
      ++count[static_cast<std::size_t>(u)];
    }
  }
  std::vector<graph::VertexId> want;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (count[static_cast<std::size_t>(v)] > 0) want.push_back(v);
  }
  std::ranges::stable_sort(want, std::greater<>(), [&count](graph::VertexId v) {
    return count[static_cast<std::size_t>(v)];
  });
  EXPECT_EQ(cache.pinned_vertices(), want);
}

// Regression (ISSUE 10): `--cache-rounds 0` is a valid configuration — zero
// warm-up rounds leave every presample score at zero, so drop_zero_scores
// pins nothing and the cache degrades to the uncached gather path (still
// byte-identical) instead of dividing by an empty sample or pinning
// arbitrary rows.
TEST(FeatureCache, ZeroWarmupRoundsPinsNothingAndGathersBitIdentically) {
  const World w = make_world();
  const TrafficOptions t = small_traffic();
  FeatureCacheOptions c = presample(0.25);
  c.warmup_rounds = 0;
  FeatureCache cache(w.g, w.feat, t, c);
  EXPECT_EQ(cache.stats().pinned_rows, 0);
  EXPECT_TRUE(cache.pinned_vertices().empty());

  const auto traffic = generate_traffic(w.g, w.feat, t);
  for (const Request& r : traffic) {
    Tensor cached;
    cache.gather(r.ego.to_global, cached);
    EXPECT_EQ(cached, gather_rows(w.feat, r.ego.to_global)) << "req " << r.id;
  }
  EXPECT_EQ(cache.stats().hit_rows, 0);  // nothing pinned, nothing hits
}

// --- gather: bit-identity + accounting -------------------------------------

TEST(FeatureCache, GatherIsBitIdenticalToUncachedPath) {
  const World w = make_world();
  const TrafficOptions t = small_traffic();
  const auto traffic = generate_traffic(w.g, w.feat, t);
  FeatureCache cache(w.g, w.feat, t, presample(0.25));

  bool any_hit = false;
  for (const Request& r : traffic) {
    Tensor cached;
    cache.gather(r.ego.to_global, cached);
    const Tensor direct = gather_rows(w.feat, r.ego.to_global);
    EXPECT_EQ(cached, direct) << "req " << r.id;
    for (const graph::VertexId v : r.ego.to_global) {
      any_hit |= cache.is_pinned(v);
    }
  }
  EXPECT_TRUE(any_hit) << "sweep never touched the pinned set";
  EXPECT_GT(cache.stats().hit_rows, 0);
}

TEST(FeatureCache, HitMissAccountingSumsToTotalGatherRows) {
  const World w = make_world();
  const TrafficOptions t = small_traffic(32);
  const auto traffic = generate_traffic(w.g, w.feat, t);
  FeatureCache cache(w.g, w.feat, t, presample(0.15));

  std::int64_t total_rows = 0;
  double charge = 0;
  for (const Request& r : traffic) {
    Tensor out;
    charge += cache.gather(r.ego.to_global, out);
    total_rows += static_cast<std::int64_t>(r.ego.to_global.size());
  }
  const CacheStats& cs = cache.stats();
  EXPECT_EQ(cs.hit_rows + cs.miss_rows, total_rows);
  const std::int64_t row_bytes =
      w.feat.cols() * static_cast<std::int64_t>(sizeof(float));
  EXPECT_EQ(cs.bytes_hit, cs.hit_rows * row_bytes);
  EXPECT_EQ(cs.bytes_miss, cs.miss_rows * row_bytes);
  EXPECT_DOUBLE_EQ(cs.gather_ms, charge);
  EXPECT_GE(cs.hit_ratio(), 0.0);
  EXPECT_LE(cs.hit_ratio(), 1.0);

  cache.reset_stats();
  EXPECT_EQ(cache.stats().hit_rows, 0);
  EXPECT_EQ(cache.stats().pinned_rows, cs.pinned_rows);  // pins survive
}

TEST(FeatureCache, MetricsExposeCacheTrafficSplit) {
  const World w = make_world();
  const TrafficOptions t = small_traffic();
  const auto traffic = generate_traffic(w.g, w.feat, t);
  FeatureCache cache(w.g, w.feat, t, presample(0.25));
  Tensor out;
  cache.gather(traffic.front().ego.to_global, out);

  const sim::Metrics m = cache.metrics();
  EXPECT_EQ(m.bytes_cache_hit, static_cast<double>(cache.stats().bytes_hit));
  EXPECT_EQ(m.bytes_cache_miss,
            static_cast<double>(cache.stats().bytes_miss));
  EXPECT_GE(m.peak_device_bytes, cache.stats().pinned_bytes);
}

// --- served-output bit-identity --------------------------------------------

TEST(ServerCache, CachedServingIsBitIdenticalFaultFree) {
  const World w = make_world();
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic());

  Server plain(small_server());
  const ServeResult base = plain.run(traffic, w.spec);

  FeatureCache cache(w.g, w.feat, small_traffic(), presample(0.20));
  Server cached(small_server(), &cache);
  const ServeResult res = cached.run(traffic, w.spec);

  ASSERT_EQ(res.responses.size(), base.responses.size());
  for (std::size_t i = 0; i < res.responses.size(); ++i) {
    EXPECT_EQ(res.responses[i].served(), base.responses[i].served());
    if (res.responses[i].served()) {
      EXPECT_TRUE(
          same_bits(res.responses[i].output, base.responses[i].output))
          << "req " << i;
    }
  }
  // The digest collapses the same claim to one number.
  EXPECT_EQ(res.report.output_digest, base.report.output_digest);

  // Cache accounting reaches the SLO report; executed == all requests here,
  // so the hit/miss split must cover every gathered ego row.
  std::int64_t total_rows = 0;
  for (const Request& r : traffic) {
    total_rows += static_cast<std::int64_t>(r.ego.to_global.size());
  }
  EXPECT_EQ(res.report.cache_policy, "presample");
  EXPECT_EQ(res.report.cache_hit_rows + res.report.cache_miss_rows,
            total_rows);
  EXPECT_GT(res.report.cache_hit_ratio, 0.0);
  EXPECT_GT(res.report.cache_gather_ms, 0.0);
  // The uncached twin reports the cache as absent.
  EXPECT_EQ(base.report.cache_policy, "off");
  EXPECT_EQ(base.report.cache_hit_rows, 0);
}

TEST(ServerCache, StormBitIdentityIncludesFallbackPath) {
  const World w = make_world();
  const auto traffic = generate_traffic(w.g, w.feat, small_traffic(32));

  // Fault-free uncached reference: serves everything on the direct path, so
  // every served cached response has a comparison partner.
  Server plain(small_server());
  const ServeResult base = plain.run(traffic, w.spec);
  ASSERT_EQ(base.report.ok, base.report.total);

  // Storm deep enough to exhaust direct retries and force the partitioned
  // fallback on some requests (mirrors test_serve's degrade storm).
  ServerOptions storm_opts = small_server();
  StormEvent storm;
  storm.at_request = 8;
  storm.plan.oom_every = 60;
  storm.plan.oom_burst_len = 4;
  storm_opts.storms = {storm};

  FeatureCache cache(w.g, w.feat, small_traffic(32), presample(0.20));
  Server cached(storm_opts, &cache);
  const ServeResult res = cached.run(traffic, w.spec);

  EXPECT_GT(res.report.degraded, 0) << "storm never forced the fallback";
  std::int64_t compared = 0;
  for (std::size_t i = 0; i < res.responses.size(); ++i) {
    if (!res.responses[i].served()) continue;
    ++compared;
    EXPECT_TRUE(same_bits(res.responses[i].output, base.responses[i].output))
        << "req " << i << " (" << outcome_name(res.responses[i].outcome)
        << ")";
  }
  EXPECT_GT(compared, 0);
}

}  // namespace
}  // namespace tlp::serve
