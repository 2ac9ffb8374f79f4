// Pre-sampling feature-cache sweep for the serving tier (DESIGN.md §12,
// ROADMAP item 3).
//
// gSuite's methodology point (PAPERS.md): cache wins must be reported as
// curves, not single points. This bench sweeps the pinned-cache size for the
// presample and degree policies over the same seed-deterministic traffic and
// records hit ratio, latency percentiles, throughput, and gather-traffic
// reduction per point, plus a `none` policy (a cache with zero pinned rows)
// that pays the full miss cost — the comparable baseline of the sweep. An
// uncached reference run provides the bit-identity check: every cached
// response must be byte-identical to the cacheless one (the cache changes
// accounting, never outputs).
//
// The baseline shape assertions encode the cache contract: presample beats
// degree on hit ratio (sampled gather frequency sees the popularity
// permutation; static degree cannot), hit ratio rises and p99 falls
// monotonically with cache size, and the bitwise mismatch count is zero.
//
// Extra flag: --requests N (traffic length; default 120).
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"
#include "suite.hpp"

namespace tlp::bench {

namespace {

struct SweepPoint {
  std::string variant;
  serve::CachePolicy policy;
  double ratio;
};

int run(const Args& args, Reporter& rep) {
  const BenchConfig cfg = BenchConfig::from_args(args, 150'000, 16);
  rep.set_config(cfg);

  GraphCache graphs(cfg);
  const graph::Csr& g = graphs.get("PD");
  const tensor::Tensor feat = make_features(g, cfg.feature_size, cfg.seed);
  Rng rng(cfg.seed);
  const models::ConvSpec spec =
      models::ConvSpec::make(models::ModelKind::kGcn, cfg.feature_size, rng);

  serve::TrafficOptions topts;
  topts.num_requests = args.get_int_checked("requests", 120, 1, 100'000);
  topts.mean_interarrival_ms = 2.0;
  topts.hops = 1;
  topts.max_ego_vertices = 128;
  topts.seed = cfg.seed;
  const std::vector<serve::Request> traffic =
      serve::generate_traffic(g, feat, topts);

  serve::ServerOptions sopts;
  sopts.queue_capacity = 32;
  sopts.max_batch = 4;
  sopts.batch_window_ms = 1.0;

  print_header("Feature-cache sweep (pre-sampling vs degree vs none)",
               "dataset PD | " + g.summary() + " | " +
                   std::to_string(topts.num_requests) + " requests");

  // Uncached reference: the legacy free-gather path every cached run must
  // match bitwise.
  serve::Server reference(sopts);
  const serve::ServeResult base = reference.run(traffic, spec);

  const std::vector<SweepPoint> sweep{
      {"none", serve::CachePolicy::kNone, 0.0},
      {"degree_r05", serve::CachePolicy::kDegree, 0.05},
      {"degree_r10", serve::CachePolicy::kDegree, 0.10},
      {"degree_r20", serve::CachePolicy::kDegree, 0.20},
      {"presample_r05", serve::CachePolicy::kPresample, 0.05},
      {"presample_r10", serve::CachePolicy::kPresample, 0.10},
      {"presample_r20", serve::CachePolicy::kPresample, 0.20},
  };

  TextTable t({"variant", "pinned", "hit ratio", "gather ms", "p50 ms",
               "p99 ms", "req/s"});
  std::int64_t total_both = 0;
  std::int64_t total_mismatched = 0;
  for (const SweepPoint& pt : sweep) {
    serve::FeatureCacheOptions copts;
    copts.policy = pt.policy;
    copts.cache_ratio = pt.ratio;
    serve::FeatureCache cache(g, feat, topts, copts);
    serve::Server server(sopts, &cache);
    const serve::ServeResult res = server.run(traffic, spec);
    const serve::CacheStats& cs = cache.stats();

    // Bit-identity vs the uncached reference.
    std::int64_t both = 0;
    std::int64_t mismatched = 0;
    for (std::size_t i = 0; i < traffic.size(); ++i) {
      const serve::Response& a = res.responses[i];
      const serve::Response& b = base.responses[i];
      if (!a.served() || !b.served()) continue;
      ++both;
      if (a.output.size() != b.output.size() ||
          std::memcmp(a.output.data(), b.output.data(),
                      a.output.size() * sizeof(float)) != 0) {
        ++mismatched;
      }
    }
    total_both += both;
    total_mismatched += mismatched;

    const std::int64_t gathered_bytes = cs.bytes_hit + cs.bytes_miss;
    const double reduction =
        gathered_bytes > 0 ? static_cast<double>(cs.bytes_hit) /
                                 static_cast<double>(gathered_bytes)
                           : 0.0;
    rep.add("serve_cache", "PD", pt.variant)
        .value("pinned_rows", static_cast<double>(cs.pinned_rows))
        .value("pinned_bytes", static_cast<double>(cs.pinned_bytes))
        .value("hit_rows", static_cast<double>(cs.hit_rows))
        .value("miss_rows", static_cast<double>(cs.miss_rows))
        .value("hit_ratio", cs.hit_ratio())
        .value("bytes_cache_hit", static_cast<double>(cs.bytes_hit))
        .value("bytes_cache_miss", static_cast<double>(cs.bytes_miss))
        .value("gather_reduction", reduction)
        .value("gather_ms", cs.gather_ms)
        .value("ok", static_cast<double>(res.report.ok))
        .value("unaccounted", static_cast<double>(res.report.unaccounted))
        .value("p50_ms", res.report.p50_ms)
        .value("p99_ms", res.report.p99_ms)
        .value("mean_ms", res.report.mean_ms)
        .value("throughput_rps", res.report.throughput_rps)
        .value("served_in_both", static_cast<double>(both))
        .value("mismatched", static_cast<double>(mismatched));

    t.add_row({pt.variant, std::to_string(cs.pinned_rows),
               fixed(cs.hit_ratio(), 3), fixed(cs.gather_ms, 3),
               fixed(res.report.p50_ms, 3), fixed(res.report.p99_ms, 3),
               fixed(res.report.throughput_rps, 1)});
  }

  // One aggregate record so a single zero assertion covers every variant.
  rep.add("serve_cache", "PD", "all_vs_uncached")
      .value("served_in_both", static_cast<double>(total_both))
      .value("mismatched", static_cast<double>(total_mismatched));

  t.print();
  std::printf("bit-identity: %lld served pairs, %lld mismatched\n",
              static_cast<long long>(total_both),
              static_cast<long long>(total_mismatched));
  return total_mismatched == 0 ? 0 : 1;
}

}  // namespace

const BenchDef serve_cache_bench{
    "serve_cache", "Feature-cache sweep (presample vs degree vs none)", run,
    "requests"};

}  // namespace tlp::bench
