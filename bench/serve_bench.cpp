// Serving SLO under a fault storm (DESIGN.md §11, ROADMAP item 3).
//
// Runs the same seed-deterministic traffic twice through the resilient
// serving runtime — once fault-free, once under a scheduled storm of
// recurring injected allocation faults — and records both SLO reports as
// tlpbench records. The baseline shape assertions encode the resilience
// contract: the fault-free run serves everything on the direct path (zero
// retried/degraded/failed), the storm run keeps 100% outcome accounting with
// a bounded error rate while actually exercising the retry and partitioned-
// fallback ladders, and every response served in both runs is bitwise
// identical (a storm may change *which* requests are served, never *what* a
// served request receives).
//
// Extra flag: --requests N (traffic length; default 120).
#include "bench_common.hpp"
#include "serve/server.hpp"
#include "suite.hpp"

namespace tlp::bench {

namespace {

void add_slo(Reporter& rep, const std::string& variant,
             const serve::SloReport& r) {
  rep.add("serving", "PD", variant)
      .value("ok", static_cast<double>(r.ok))
      .value("retried", static_cast<double>(r.retried))
      .value("degraded", static_cast<double>(r.degraded))
      .value("rejected", static_cast<double>(r.rejected))
      .value("failed", static_cast<double>(r.failed))
      .value("unaccounted", static_cast<double>(r.unaccounted))
      .value("p50_ms", r.p50_ms)
      .value("p99_ms", r.p99_ms)
      .value("mean_ms", r.mean_ms)
      .value("throughput_rps", r.throughput_rps)
      .value("error_rate", r.error_rate)
      .value("degradation_rate", r.degradation_rate)
      .value("rejection_rate", r.rejection_rate)
      .value("direct_attempts", static_cast<double>(r.direct_attempts))
      .value("fallback_attempts", static_cast<double>(r.fallback_attempts))
      .value("breaker_opens", static_cast<double>(r.breaker_opens));
}

int run(const BenchConfig& cfg, Reporter& rep) {
  GraphCache graphs(cfg);
  const graph::Csr& g = graphs.get("PD");
  const tensor::Tensor feat =
      make_features(g, cfg.feature_size, cfg.seed);
  Rng rng(cfg.seed);
  const models::ConvSpec spec =
      models::ConvSpec::make(models::ModelKind::kGcn, cfg.feature_size, rng);

  serve::TrafficOptions topts;
  topts.num_requests = cfg.requests;
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

  // Fault-free twin.
  serve::Server clean(sopts);
  const serve::ServeResult base = clean.run(traffic, spec);
  add_slo(rep, "fault_free", base.report);

  // Storm schedule: a short-burst phase that direct retries absorb, a
  // long-burst phase deep enough to exhaust the direct ladder and force the
  // partitioned fallback, then recovery. Burst lengths count *consecutive
  // failing attempts* (each failed attempt dies on its first allocation).
  serve::ServerOptions storm_opts = sopts;
  {
    serve::StormEvent retry_phase;  // 2-deep bursts: Retried outcomes
    retry_phase.at_request = topts.num_requests / 6;
    retry_phase.plan.oom_every = 48;
    retry_phase.plan.oom_burst_len = 2;
    serve::StormEvent degrade_phase;  // 4-deep bursts: Degraded outcomes
    degrade_phase.at_request = topts.num_requests / 2;
    degrade_phase.plan.oom_every = 40;
    degrade_phase.plan.oom_burst_len = 4;
    serve::StormEvent recovery;  // disarm: the tail serves clean
    recovery.at_request = (topts.num_requests * 5) / 6;
    storm_opts.storms = {retry_phase, degrade_phase, recovery};
  }
  serve::Server stormy(storm_opts);
  const serve::ServeResult storm = stormy.run(traffic, spec);
  add_slo(rep, "storm", storm.report);

  // The bit-identity contract, recorded as metrics the baseline asserts on.
  const serve::ServedComparison cmp =
      serve::compare_served(storm.responses, base.responses);
  rep.add("serving", "PD", "storm_vs_fault_free")
      .value("served_in_both", static_cast<double>(cmp.served_in_both))
      .value("mismatched", static_cast<double>(cmp.mismatched.size()));
  return cmp.mismatched.empty() ? 0 : 1;
}

}  // namespace

const BenchDef serve_bench{"serve",
                           "Serving SLO under fault storm (resilient runtime)",
                           run, /*max_edges=*/150'000, /*feature=*/16,
                           /*min_vertices=*/0, /*requests=*/120};

}  // namespace tlp::bench
