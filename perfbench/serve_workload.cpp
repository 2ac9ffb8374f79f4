// Workload `serve`: a PD serving session under an OOM storm, checked
// against its fault-free twin, plus a fault-free ladder of offered rates.
#include <optional>

#include "bench.hpp"
#include "common/format.hpp"
#include "gate.hpp"
#include "graph/datasets.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"

namespace tlp::perfbench {

namespace {

constexpr std::int64_t kFeature = 32;
constexpr std::int64_t kRequests = 20'000;
constexpr std::int64_t kLadderRequests = 2'000;
/// Offered rates of the fault-free ladder, requests per simulated second.
constexpr double kLadderRps[] = {1000,  2000,  4000,  6000,  8000, 10000,
                                 12000, 14000, 16000, 20000, 24000};
/// Latency limit of serve_max_rps.
constexpr double kP99LimitMs = 5.0;

serve::ServerOptions storm_options() {
  serve::ServerOptions s;
  // Admission never sheds: a storm shows up as backlog and latency, and
  // every request is an operation that must be served.
  s.queue_capacity = kRequests;
  serve::StormEvent on;
  on.at_request = 5'000;
  on.plan.oom_every = 7;
  s.storms = {on, {8'000, sim::FaultPlan{}}};
  return s;
}

}  // namespace

WorkloadResult run_serve(const RunOptions& opt, Tracer& tracer) {
  const graph::DatasetSpec& ds = graph::dataset_by_abbr("PD");
  serve::TrafficOptions topts;
  topts.num_requests = kRequests;
  topts.mean_interarrival_ms = 1.0;
  topts.hops = 2;
  topts.max_ego_vertices = 512;
  topts.seed = opt.seed;
  serve::TrafficOptions ladder_topts = topts;
  ladder_topts.num_requests = kLadderRequests;
  serve::FeatureCacheOptions copts;
  copts.policy = serve::CachePolicy::kPresample;
  copts.cache_ratio = 0.1;

  graph::Csr g;
  tensor::Tensor feat;
  models::ConvSpec spec;
  std::vector<serve::Request> traffic;
  std::vector<serve::Request> ladder;
  std::optional<serve::FeatureCache> cache;
  SpeedProbe probe;
  std::vector<PassSample> setups = repeat_setup(tracer, probe, [&] {
    // Free the previous set-up first: the cache points into `feat`.
    cache.reset();
    traffic = {};
    ladder = {};
    g = graph::Csr{};
    {
      const auto s = tracer.span("graph.make_dataset");
      g = graph::make_dataset(ds, {.max_edges = 200'000, .seed = opt.seed});
    }
    Rng rng(opt.seed);
    {
      const auto s = tracer.span("tensor.random");
      feat = tensor::Tensor::random(g.num_vertices(), kFeature, rng);
    }
    spec = models::ConvSpec::make(models::ModelKind::kGcn, kFeature, rng);
    {
      const auto s = tracer.span("serve.traffic");
      traffic = serve::generate_traffic(g, feat, topts);
      ladder = serve::generate_traffic(g, feat, ladder_topts);
    }
    const auto s = tracer.span("serve.cache_warmup");
    cache.emplace(g, feat, topts, copts);
  });

  WorkloadResult res;
  res.inputs = "PD replica capped at 200K edges (" + g.summary() +
               "), GCN F=32, 20000 Poisson requests at 1 ms mean gap (open "
               "loop), 2-hop egos capped at 512, presample cache 0.1, OOM "
               "every 7th allocation over requests 5000-8000";

  const serve::ServerOptions storm = storm_options();
  serve::ServerOptions clean = storm;
  clean.storms.clear();
  // Runs one session on a fresh server; the shared cache's counters restart.
  const auto session = [&](const serve::ServerOptions& o,
                           const std::vector<serve::Request>& t,
                           sim::AccessTrace* counter = nullptr) {
    cache->reset_stats();
    serve::Server server(o, &*cache);
    server.engine().device().attach_trace(counter);
    return server.run(t, spec);
  };

  // The fault-free twin is the reference every storm session is checked
  // against; it also serves as the untimed warm-up. Every pass runs the twin
  // again as part of its reference check, and must reproduce it.
  serve::ServeResult twin;
  warm_up(tracer, [&] { twin = session(clean, traffic); });
  if (twin.report.unaccounted != 0) res.deterministic = false;
  Digest twin_digest;
  add_slo(twin_digest, twin.report);

  serve::SloReport report;
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::string digest;
  std::int64_t sessions = 0;
  std::int64_t compared = 0;
  std::int64_t mismatched = 0;
  PassTimes passes = repeat_passes(opt, tracer, probe, [&] {
    PassSample sample;
    {
      const Timer c;
      const serve::ServeResult again = session(clean, traffic);
      sample.check_s += c.seconds();
      Digest d;
      add_slo(d, again.report);
      if (d.hex() != twin_digest.hex()) res.deterministic = false;
    }
    probe.between_units();
    cache->reset_stats();
    serve::Server server(storm, &*cache);
    const Timer t;
    std::optional<serve::ServeResult> r;
    {
      const auto s = tracer.span("serve.run", sessions);
      r = server.run(traffic, spec);
    }
    sample.run_s = t.seconds();

    const Timer c;
    const ServeCheck check = check_served(*r, twin);
    ++sessions;
    res.attempted += check.requests;
    res.failed += check.failures();
    compared += check.compared;
    mismatched += check.mismatched;
    if (check.unaccounted != 0) res.deterministic = false;
    Digest d;
    add_slo(d, r->report);
    if (digest.empty()) {
      digest = d.hex();
      report = r->report;
      for (const serve::Response& resp : r->responses) {
        if (!resp.served()) continue;
        latency_ms.push_back(resp.latency_ms);
        queue_ms.push_back(resp.queue_ms);
      }
    } else if (d.hex() != digest) {
      res.deterministic = false;
    }
    sample.check_s += c.seconds();
    if (tracer.enabled() && sessions == 1) {
      for (const serve::Response& resp : r->responses) {
        tracer.add_sim_span("requests", "queue", resp.arrival_ms,
                            resp.queue_ms, resp.id);
        tracer.add_sim_span("requests", serve::outcome_name(resp.outcome),
                            resp.arrival_ms + resp.queue_ms,
                            resp.latency_ms - resp.queue_ms, resp.id);
      }
    }
    return sample;
  });
  passes.setups = std::move(setups);
  const double run_s = passes.run_s();

  // Kernel launches and warp requests are reset with every convolution
  // inside Server::run, so they are counted by replaying the (deterministic)
  // storm session with a counting access trace attached: a one-entry budget
  // drops every access but still counts it.
  sim::AccessTrace counter(1);
  const serve::ServeResult replay = session(storm, traffic, &counter);
  Digest replay_digest;
  add_slo(replay_digest, replay.report);
  if (replay_digest.hex() != digest) res.deterministic = false;
  const std::int64_t requests = counter.recorded() + counter.dropped();
  const auto launches = static_cast<std::int64_t>(counter.kernels().size());

  // Fault-free ladder: the same 2000 requests at each offered rate.
  std::vector<double> base_arrival;
  for (const serve::Request& r : ladder) base_arrival.push_back(r.arrival_ms);
  double max_rps = 0;
  std::string ladder_line = "ladder (fault-free, 2000 requests) p99 ms:";
  for (const double rps : kLadderRps) {
    for (std::size_t i = 0; i < ladder.size(); ++i)
      ladder[i].arrival_ms = base_arrival[i] * (1000.0 / rps);
    const serve::SloReport rep = session(clean, ladder).report;
    if (rep.rejected == 0 && rep.failed == 0 && rep.p99_ms <= kP99LimitMs)
      max_rps = rps;
    ladder_line += " " + fixed(rps, 0) + "/s=" + fixed(rep.p99_ms, 2);
  }

  const auto served = static_cast<double>(latency_ms.size());
  add_host_metrics(res, passes, requests);
  add_op_latency(res, latency_ms);
  res.specific.push_back({"serve_p50_ms", report.p50_ms, "ms", "simulated"});
  res.specific.push_back({"serve_p99_ms", report.p99_ms, "ms", "simulated"});
  res.specific.push_back({"serve_max_rps", max_rps, "1/s", "simulated"});
  res.specific.push_back(
      {"serve_host_rps", ratio(served, run_s), "1/s", "host"});
  res.digest = digest;
  res.passes = passes;
  res.notes.push_back(
      "storm session: " + fixed(served, 0) + " served latency samples (" +
      std::to_string(report.ok) + " ok, " + std::to_string(report.retried) +
      " retried, " + std::to_string(report.degraded) + " degraded, " +
      std::to_string(report.rejected) + " rejected, " +
      std::to_string(report.failed) + " failed), cache hit ratio " +
      pct(report.cache_hit_ratio));
  res.notes.push_back("bit-identity vs fault-free twin: " +
                      std::to_string(compared) + " rows compared over " +
                      std::to_string(sessions) + " sessions, " +
                      std::to_string(mismatched) + " mismatched; unaccounted " +
                      std::to_string(report.unaccounted));
  res.notes.push_back(ladder_line + " (limit " + fixed(kP99LimitMs, 0) +
                      " ms)");

  auto& L = res.layers;
  L["graph.edges"] = static_cast<double>(g.num_edges());
  L["sim.requests.tlpgnn"] = static_cast<double>(requests);
  L["sim.launches.tlpgnn"] = static_cast<double>(launches);
  L["serve.queue_p50_ms"] = nearest_rank(queue_ms, 0.50);
  L["serve.queue_p99_ms"] = nearest_rank(queue_ms, 0.99);
  L["serve.direct_attempts"] = static_cast<double>(report.direct_attempts);
  L["serve.fallback_attempts"] = static_cast<double>(report.fallback_attempts);
  L["serve.attempts_per_served"] = ratio(
      static_cast<double>(report.direct_attempts + report.fallback_attempts),
      served);
  L["serve.cache_hit_ratio"] = report.cache_hit_ratio;
  L["serve.cache_gather_ms"] = report.cache_gather_ms;
  L["serve.breaker_opens"] = static_cast<double>(report.breaker_opens);
  L["serve.max_rps"] = max_rps;
  if (opt.trace) {
    L["trace.overhead_s"] = passes.trace_overhead_s();
    const auto self = tracer.self_time_by_layer();
    L["graph.make_dataset_s"] = value_or_zero(self, "graph.make_dataset");
    L["tensor.random_s"] = value_or_zero(self, "tensor.random");
    L["serve.traffic_s"] = value_or_zero(self, "serve.traffic");
    L["serve.cache_warmup_s"] = value_or_zero(self, "serve.cache_warmup");
    L["serve.run_s"] = value_or_zero(self, "serve.run");
    L["sim.host_ns_per_request.tlpgnn"] =
        ratio(value_or_zero(self, "serve.run") * 1e9,
              static_cast<double>(requests));
  }
  return res;
}

}  // namespace tlp::perfbench
