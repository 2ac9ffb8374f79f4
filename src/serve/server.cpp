#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <string>

#include "common/check.hpp"
#include "serve/feature_cache.hpp"
#include "systems/partitioned.hpp"

namespace tlp::serve {

namespace {

using graph::EdgeOffset;
using graph::VertexId;

/// Simulated charge for an attempt that dies before producing kernel time.
constexpr double kFailedAttemptFloorMs = 0.05;

/// Seed of the backoff-jitter stream (independent of the traffic seed).
constexpr std::uint64_t kJitterSeed = 7;

/// Block-diagonal disjoint union of the batch members' ego subgraphs. Each
/// block keeps its internal edge order and its in-degrees, so GCN norms and
/// per-vertex float accumulation are exactly the single-request values —
/// the served rows do not depend on batch composition.
struct MergedBatch {
  graph::Csr csr;
  tensor::Tensor feat;
  std::vector<VertexId> base;  ///< first merged vertex id of each member
};

MergedBatch merge_batch(const std::vector<const Request*>& reqs,
                        const std::vector<const tensor::Tensor*>& feats) {
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  const std::int64_t cols = feats.front()->cols();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    TLP_CHECK_EQ(feats[i]->cols(), cols);
    vertices += reqs[i]->ego.csr.num_vertices();
    edges += reqs[i]->ego.csr.num_edges();
  }

  MergedBatch m;
  m.feat = tensor::Tensor(vertices, cols);
  m.base.reserve(reqs.size());
  std::vector<EdgeOffset> indptr;
  indptr.reserve(static_cast<std::size_t>(vertices) + 1);
  indptr.push_back(0);
  std::vector<VertexId> indices;
  indices.reserve(static_cast<std::size_t>(edges));

  VertexId base = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    m.base.push_back(base);
    const graph::Csr& g = reqs[i]->ego.csr;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const VertexId u : g.neighbors(v)) {
        indices.push_back(u + base);
      }
      indptr.push_back(static_cast<EdgeOffset>(indices.size()));
      const auto src = feats[i]->row(v);
      auto dst = m.feat.row(base + v);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    base += g.num_vertices();
  }
  m.csr = graph::Csr(std::move(indptr), std::move(indices));
  return m;
}

void fill_served(Response& out, const Request& req, Outcome outcome,
                 std::span<const float> row, double t_start, double now) {
  out.outcome = outcome;
  out.output.assign(row.begin(), row.end());
  out.queue_ms = t_start - req.arrival_ms;
  out.latency_ms = now - req.arrival_ms;
  out.deadline_missed = req.deadline_ms > 0 && now > req.deadline_ms;
}

}  // namespace

Server::Server(const ServerOptions& opts, FeatureCache* cache)
    : opts_(opts),
      engine_([&opts] {
        EngineOptions eo = opts.engine;
        eo.degrade = false;  // the server owns the ladder
        return eo;
      }()),
      cache_(cache) {
  TLP_CHECK_GT(opts_.queue_capacity, 0);
  TLP_CHECK_GT(opts_.max_batch, 0);
  TLP_CHECK_GE(opts_.queue_capacity, opts_.max_batch);
  TLP_CHECK_GE(opts_.batch_window_ms, 0);
  TLP_CHECK_GE(opts_.retry.max_retries, 0);
  TLP_CHECK_GE(opts_.retry.base_delay_ms, 0);
  TLP_CHECK_GE(opts_.fallback.initial_partitions, 1);
  TLP_CHECK_GE(opts_.fallback.max_attempts, 1);
  TLP_CHECK_GT(opts_.breaker.failure_threshold, 0);
  TLP_CHECK_GE(opts_.breaker.cooldown_ms, 0);
  for (std::size_t s = 1; s < opts_.storms.size(); ++s) {
    TLP_CHECK_MSG(opts_.storms[s - 1].at_request <= opts_.storms[s].at_request,
                  "StormEvents must be sorted by at_request");
  }
}

ServeResult Server::run(const std::vector<Request>& traffic,
                        const models::ConvSpec& spec) {
  TLP_CHECK_MSG(!spec.has_edge_weights(),
                "serving does not support edge-weighted specs (weights are "
                "bound to global edge order)");
  const auto n = static_cast<std::int64_t>(traffic.size());
  for (std::int64_t i = 0; i < n; ++i) {
    TLP_CHECK_MSG(traffic[i].id == i, "traffic ids must be 0..n-1 in order");
    TLP_CHECK_MSG(i == 0 || traffic[i - 1].arrival_ms <= traffic[i].arrival_ms,
                  "traffic must be sorted by arrival time");
  }

  ServeResult result;
  result.responses.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    result.responses[static_cast<std::size_t>(i)].id = i;
    result.responses[static_cast<std::size_t>(i)].arrival_ms =
        traffic[static_cast<std::size_t>(i)].arrival_ms;
  }

  sim::Device& dev = engine_.device();
  Rng jitter(kJitterSeed);
  CircuitBreaker breaker(opts_.breaker);
  std::deque<std::int64_t> queue;
  std::int64_t next_arrival = 0;
  std::size_t next_storm = 0;
  double clock = 0;

  // An attempt that died before producing kernel time still occupies the
  // device: charge the partial gpu time it did accumulate, floored at
  // kFailedAttemptFloorMs. Deterministic — gpu_time_ms is simulated.
  const auto failed_charge = [&]() {
    return std::max(kFailedAttemptFloorMs, dev.gpu_time_ms());
  };

  const auto admit_until = [&](double t) {
    while (next_arrival < n &&
           traffic[static_cast<std::size_t>(next_arrival)].arrival_ms <= t) {
      const Request& r = traffic[static_cast<std::size_t>(next_arrival)];
      if (static_cast<std::int64_t>(queue.size()) >= opts_.queue_capacity) {
        Response& out = result.responses[static_cast<std::size_t>(r.id)];
        out.outcome = Outcome::kRejected;
        out.error = "queue full (capacity " +
                    std::to_string(opts_.queue_capacity) + ")";
      } else {
        queue.push_back(r.id);
      }
      ++next_arrival;
    }
  };

  // Serves one request through the retry/degrade ladder after the batched
  // direct attempt failed (or was skipped by an open breaker). `feat` is the
  // request's staged feature block — the cache-gathered copy when a cache is
  // attached (staged once per batch; retries reuse it), Request::feat
  // otherwise.
  const auto serve_one = [&](const Request& req, const tensor::Tensor& feat,
                             Response& out, double t_start) {
    const graph::Csr& g = req.ego.csr;

    // Direct retries with exponential backoff + jitter, breaker-gated.
    while (out.direct_attempts < 1 + opts_.retry.max_retries) {
      if (!breaker.allow(clock)) break;
      if (out.direct_attempts > 0) {
        clock += opts_.retry.delay_ms(out.direct_attempts - 1, jitter);
      }
      dev.set_fault_context("req " + std::to_string(req.id) +
                            " direct attempt " +
                            std::to_string(out.direct_attempts + 1));
      try {
        const systems::RunResult r = engine_.conv(g, feat, spec);
        clock += r.runtime_ms;
        breaker.record_success();
        ++out.direct_attempts;
        fill_served(out, req,
                    out.direct_attempts == 1 ? Outcome::kOk : Outcome::kRetried,
                    r.output.row(req.query_local), t_start, clock);
        return;
      } catch (const DeviceError& e) {
        ++out.direct_attempts;
        clock += failed_charge();
        breaker.record_failure(clock);
        out.error = e.what();
      }
    }

    // Partitioned fallback: bit-identical output, doubling part count. A
    // graph of < 2 vertices cannot be split; such a request can only fail.
    if (g.num_vertices() >= 2) {
      int k = std::max(2, opts_.fallback.initial_partitions);
      for (int a = 0; a < opts_.fallback.max_attempts; ++a) {
        k = std::min<int>(k, g.num_vertices());
        ++out.fallback_attempts;
        dev.set_fault_context("req " + std::to_string(req.id) +
                              " fallback attempt " + std::to_string(a + 1) +
                              " (k=" + std::to_string(k) + ")");
        try {
          const systems::RunResult r = systems::run_partitioned(
              fallback_system_, dev, g, feat, spec, k);
          clock += r.runtime_ms;
          out.partitions = k;
          fill_served(out, req, Outcome::kDegraded,
                      r.output.row(req.query_local), t_start, clock);
          return;
        } catch (const DeviceError& e) {
          clock += failed_charge();
          out.error = e.what();
          if (k >= g.num_vertices()) break;  // cannot split further
          k *= 2;
        }
      }
    }

    out.outcome = Outcome::kFailed;
    // An open breaker can skip every rung of the ladder; a Failed response
    // must still explain itself.
    if (out.error.empty()) {
      out.error = "circuit breaker open: direct path skipped and no fallback "
                  "attempt was possible";
    }
    out.queue_ms = t_start - req.arrival_ms;
    out.latency_ms = clock - req.arrival_ms;
    out.deadline_missed = req.deadline_ms > 0 && clock > req.deadline_ms;
  };

  while (next_arrival < n || !queue.empty()) {
    if (queue.empty()) {
      clock = std::max(
          clock, traffic[static_cast<std::size_t>(next_arrival)].arrival_ms);
    }
    admit_until(clock);
    if (queue.empty()) continue;

    // Hold an under-full batch open for the batching window.
    const double window_end = clock + opts_.batch_window_ms;
    while (static_cast<int>(queue.size()) < opts_.max_batch &&
           next_arrival < n &&
           traffic[static_cast<std::size_t>(next_arrival)].arrival_ms <=
               window_end) {
      clock = std::max(
          clock, traffic[static_cast<std::size_t>(next_arrival)].arrival_ms);
      admit_until(clock);
    }
    if (static_cast<int>(queue.size()) < opts_.max_batch && next_arrival < n) {
      clock = window_end;  // the window timer fired
    }

    std::vector<std::int64_t> batch;
    while (!queue.empty() &&
           static_cast<int>(batch.size()) < opts_.max_batch) {
      batch.push_back(queue.front());
      queue.pop_front();
    }

    // Requests whose deadline expired while queued are shed, not executed.
    const double t_start = clock;
    std::vector<const Request*> live;
    live.reserve(batch.size());
    for (const std::int64_t id : batch) {
      const Request& r = traffic[static_cast<std::size_t>(id)];
      Response& out = result.responses[static_cast<std::size_t>(id)];
      if (r.deadline_ms > 0 && t_start > r.deadline_ms) {
        out.outcome = Outcome::kRejected;
        out.deadline_missed = true;
        out.error = "deadline expired in queue";
      } else {
        live.push_back(&r);
      }
    }
    if (live.empty()) continue;

    // Stage the batch's feature blocks. With a cache attached every live
    // request re-gathers through it exactly once (hits from the pinned
    // region, misses from the global matrix — same bytes as Request::feat),
    // and the simulated gather charge joins the clock before execution.
    // Without a cache the pre-gathered Request::feat is used for free — the
    // legacy path, byte-for-byte.
    std::vector<tensor::Tensor> staged;
    std::vector<const tensor::Tensor*> feats(live.size());
    if (cache_ != nullptr) {
      staged.resize(live.size());
      double gather_ms = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        gather_ms += cache_->gather(live[i]->ego.to_global, staged[i]);
        feats[i] = &staged[i];
      }
      clock += gather_ms;
    } else {
      for (std::size_t i = 0; i < live.size(); ++i) {
        feats[i] = &live[i]->feat;
      }
    }

    // Arm any storm scheduled at or before this batch's first request. Batch
    // front ids are monotonic, so each event fires exactly once.
    while (next_storm < opts_.storms.size() &&
           live.front()->id >= opts_.storms[next_storm].at_request) {
      dev.arm_faults(opts_.storms[next_storm].plan);
      ++next_storm;
    }

    // Direct batched attempt over the disjoint union.
    bool batch_served = false;
    if (breaker.allow(clock)) {
      dev.set_fault_context("batch @ req " + std::to_string(live.front()->id) +
                            " (" + std::to_string(live.size()) + " reqs)");
      try {
        const MergedBatch mb = merge_batch(live, feats);
        const systems::RunResult r = engine_.conv(mb.csr, mb.feat, spec);
        clock += r.runtime_ms;
        breaker.record_success();
        for (std::size_t i = 0; i < live.size(); ++i) {
          const Request& req = *live[i];
          Response& out = result.responses[static_cast<std::size_t>(req.id)];
          ++out.direct_attempts;
          fill_served(out, req, Outcome::kOk,
                      r.output.row(mb.base[i] + req.query_local), t_start,
                      clock);
        }
        batch_served = true;
      } catch (const DeviceError& e) {
        clock += failed_charge();
        breaker.record_failure(clock);
        for (const Request* req : live) {
          Response& out = result.responses[static_cast<std::size_t>(req->id)];
          ++out.direct_attempts;
          out.error = e.what();
        }
      }
    }

    if (!batch_served) {
      for (std::size_t i = 0; i < live.size(); ++i) {
        serve_one(*live[i], *feats[i],
                  result.responses[static_cast<std::size_t>(live[i]->id)],
                  t_start);
      }
    }

    admit_until(clock);  // arrivals that landed during execution
  }

  dev.set_fault_context("");
  result.report = summarize(result.responses);
  result.report.breaker_opens = breaker.opens();
  if (cache_ != nullptr) {
    const CacheStats& cs = cache_->stats();
    result.report.cache_policy = cache_policy_name(cache_->options().policy);
    result.report.cache_pinned_rows = cs.pinned_rows;
    result.report.cache_hit_rows = cs.hit_rows;
    result.report.cache_miss_rows = cs.miss_rows;
    result.report.cache_hit_ratio = cs.hit_ratio();
    result.report.cache_gather_ms = cs.gather_ms;
  }
  return result;
}

SloReport summarize(const std::vector<Response>& responses) {
  SloReport rep;
  rep.total = static_cast<std::int64_t>(responses.size());

  std::vector<double> latencies;
  double makespan = 0;
  double latency_sum = 0;
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto fnv = [&digest](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      digest ^= p[i];
      digest *= 1099511628211ULL;
    }
  };

  for (const Response& r : responses) {
    switch (r.outcome) {
      case Outcome::kOk: ++rep.ok; break;
      case Outcome::kRetried: ++rep.retried; break;
      case Outcome::kDegraded: ++rep.degraded; break;
      case Outcome::kRejected: ++rep.rejected; break;
      case Outcome::kFailed: ++rep.failed; break;
    }
    rep.direct_attempts += r.direct_attempts;
    rep.fallback_attempts += r.fallback_attempts;
    if (r.deadline_missed) ++rep.deadline_misses;
    if (r.outcome != Outcome::kRejected) {
      makespan = std::max(makespan, r.arrival_ms + r.latency_ms);
    }
    if (r.served()) {
      latencies.push_back(r.latency_ms);
      latency_sum += r.latency_ms;
      fnv(&r.id, sizeof(r.id));
      fnv(r.output.data(), r.output.size() * sizeof(float));
    }
  }
  rep.unaccounted =
      rep.total - (rep.ok + rep.retried + rep.degraded + rep.rejected +
                   rep.failed);
  rep.output_digest = digest;

  const auto served = static_cast<std::int64_t>(latencies.size());
  if (served > 0) {
    std::sort(latencies.begin(), latencies.end());
    const auto nearest_rank = [&](double q) {
      const auto idx = static_cast<std::int64_t>(
          std::ceil(q * static_cast<double>(served))) - 1;
      return latencies[static_cast<std::size_t>(
          std::clamp<std::int64_t>(idx, 0, served - 1))];
    };
    rep.p50_ms = nearest_rank(0.50);
    rep.p99_ms = nearest_rank(0.99);
    rep.mean_ms = latency_sum / static_cast<double>(served);
    rep.max_ms = latencies.back();
  }
  rep.makespan_ms = makespan;
  if (makespan > 0) {
    rep.throughput_rps = static_cast<double>(served) / makespan * 1000.0;
  }
  if (rep.total > 0) {
    rep.error_rate = static_cast<double>(rep.failed) / rep.total;
    rep.degradation_rate = static_cast<double>(rep.degraded) / rep.total;
    rep.rejection_rate = static_cast<double>(rep.rejected) / rep.total;
  }
  return rep;
}

report::Json SloReport::to_json() const {
  report::Json j = report::Json::object();
  j.set("total", total);
  j.set("ok", ok);
  j.set("retried", retried);
  j.set("degraded", degraded);
  j.set("rejected", rejected);
  j.set("failed", failed);
  j.set("unaccounted", unaccounted);
  j.set("p50_ms", p50_ms);
  j.set("p99_ms", p99_ms);
  j.set("mean_ms", mean_ms);
  j.set("max_ms", max_ms);
  j.set("makespan_ms", makespan_ms);
  j.set("throughput_rps", throughput_rps);
  j.set("error_rate", error_rate);
  j.set("degradation_rate", degradation_rate);
  j.set("rejection_rate", rejection_rate);
  j.set("deadline_misses", deadline_misses);
  j.set("direct_attempts", direct_attempts);
  j.set("fallback_attempts", fallback_attempts);
  j.set("breaker_opens", breaker_opens);
  j.set("cache_policy", cache_policy);
  j.set("cache_pinned_rows", cache_pinned_rows);
  j.set("cache_hit_rows", cache_hit_rows);
  j.set("cache_miss_rows", cache_miss_rows);
  j.set("cache_hit_ratio", cache_hit_ratio);
  j.set("cache_gather_ms", cache_gather_ms);
  j.set("output_digest", std::to_string(output_digest));
  return j;
}

}  // namespace tlp::serve
