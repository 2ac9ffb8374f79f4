// tlpserve — the resilient serving runtime, end to end (DESIGN.md §11).
//
//   tlpserve [--dataset PD | --graph file.el] [--max-edges N] [--seed S]
//            [--model GCN] [--feature 32] [--heads 1]
//            traffic:  [--requests 256] [--arrival poisson|bursty]
//                      [--mean-gap-ms 1.0] [--burst-len 32]
//                      [--burst-speedup 8] [--idle-gap-ms 20]
//                      [--zipf 0.8] [--hops 2] [--max-ego 512]
//                      [--deadline-ms D]
//   serving:  [--queue-cap 64] [--max-batch 8] [--batch-window-ms 2]
//             [--retries 2] [--backoff-ms 0.5] [--jitter 0.2]
//             [--fallback-attempts 2] [--partitions 2]
//             [--breaker-threshold 4] [--breaker-cooldown-ms 50]
//             [--gpu-scale 1] [--device-mem-gb G]
//   storm:    [--storm-at REQ] [--storm-oom-every N] [--storm-oom-burst L]
//             [--storm-launch-every N] [--storm-launch-burst L]
//             [--storm-stop-at REQ]
//   cache:    [--cache-policy presample|degree|none] [--cache-ratio 0.1]
//             [--cache-rounds 3]
//   output:   [--json PATH] [--verify] [--quiet]
//
// The cache flags attach a pre-sampling feature cache (DESIGN.md §12):
// --cache-policy picks how the pinned set is ranked, --cache-ratio the
// fraction of vertices pinned, --cache-rounds the warm-up sampling rounds.
// Served rows stay bit-identical to a cacheless run; only the latency /
// cache accounting changes. Without --cache-policy the gather stays free
// (the legacy pre-cache behavior, byte-for-byte).
//
// The storm flags arm a recurring FaultPlan right before the batch holding
// request REQ executes (and disarm it at --storm-stop-at). --verify re-runs
// the identical traffic with no storm and bit-compares every response that
// was served in both runs — the graceful-degradation contract: a fault storm
// may slow requests down or shed them, but a served embedding is always the
// bit-identical fault-free answer. Exit codes: 0 ok, 1 failure (including a
// --verify mismatch), 2 usage error.
#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"

namespace {

using namespace tlp;

constexpr std::int64_t kSeqMax = 1'000'000'000'000;

const std::vector<std::string>& known_flags() {
  static const std::vector<std::string> kFlags{
      "dataset", "graph", "max-edges", "seed", "model", "feature", "heads",
      "requests", "arrival", "mean-gap-ms", "burst-len", "burst-speedup",
      "idle-gap-ms", "zipf", "hops", "max-ego", "deadline-ms",
      "queue-cap", "max-batch", "batch-window-ms", "retries", "backoff-ms",
      "jitter", "fallback-attempts", "partitions", "breaker-threshold",
      "breaker-cooldown-ms", "gpu-scale", "device-mem-gb",
      "storm-at", "storm-oom-every", "storm-oom-burst", "storm-launch-every",
      "storm-launch-burst", "storm-stop-at",
      "cache-policy", "cache-ratio", "cache-rounds",
      "json", "verify", "quiet", "help"};
  return kFlags;
}

graph::Csr load_graph(const Args& args) {
  const std::string path = args.get("graph", "");
  if (!path.empty()) return graph::read_edge_list_file(path);
  const auto& ds = graph::dataset_by_abbr(args.get("dataset", "PD"));
  return graph::make_dataset(
      ds, {.max_edges = args.get_int_checked("max-edges", 200'000, 1, kSeqMax),
           .full = false,
           .seed = static_cast<std::uint64_t>(
               args.get_int_checked("seed", 42, 0, kSeqMax))});
}

models::ModelKind parse_model(const Args& args) {
  const std::string name = args.get("model", "GCN");
  for (const auto k : models::kAllModels)
    if (name == models::model_name(k)) return k;
  TLP_CHECK_MSG(false, "unknown model '" << name << "' (GCN/GIN/Sage/GAT)");
  __builtin_unreachable();
}

serve::TrafficOptions traffic_options(const Args& args) {
  serve::TrafficOptions t;
  t.num_requests = args.get_int_checked("requests", 256, 0, 1'000'000);
  const std::string arrival = args.get("arrival", "poisson");
  if (arrival == "poisson") {
    t.arrival = serve::ArrivalProcess::kPoisson;
  } else if (arrival == "bursty") {
    t.arrival = serve::ArrivalProcess::kBursty;
  } else {
    TLP_CHECK_MSG(false,
                  "unknown --arrival '" << arrival << "' (poisson|bursty)");
  }
  t.mean_interarrival_ms =
      args.get_double_checked("mean-gap-ms", 1.0, 1e-6, 1e9);
  t.burst_len = args.get_int_checked("burst-len", 32, 1, 1'000'000);
  t.burst_speedup = args.get_double_checked("burst-speedup", 8.0, 1e-6, 1e9);
  t.gap_ms = args.get_double_checked("idle-gap-ms", 20.0, 0, 1e9);
  t.zipf_alpha = args.get_double_checked("zipf", 0.8, 0, 64);
  t.hops = static_cast<int>(args.get_int_checked("hops", 2, 0, 16));
  t.max_ego_vertices = args.get_int_checked("max-ego", 512, 1, kSeqMax);
  t.deadline_ms = args.get_double_checked("deadline-ms", 0, 0, 1e9);
  t.seed =
      static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0, kSeqMax));
  return t;
}

serve::ServerOptions server_options(const Args& args) {
  serve::ServerOptions s;
  s.queue_capacity = args.get_int_checked("queue-cap", 64, 1, 1'000'000);
  s.max_batch =
      static_cast<int>(args.get_int_checked("max-batch", 8, 1, 4096));
  s.batch_window_ms = args.get_double_checked("batch-window-ms", 2.0, 0, 1e9);
  s.retry.max_retries =
      static_cast<int>(args.get_int_checked("retries", 2, 0, 64));
  s.retry.base_delay_ms = args.get_double_checked("backoff-ms", 0.5, 0, 1e9);
  s.retry.jitter_frac = args.get_double_checked("jitter", 0.2, 0, 1);
  s.fallback.max_attempts =
      static_cast<int>(args.get_int_checked("fallback-attempts", 2, 1, 64));
  s.fallback.initial_partitions =
      static_cast<int>(args.get_int_checked("partitions", 2, 1, 1 << 20));
  s.breaker.failure_threshold = static_cast<int>(
      args.get_int_checked("breaker-threshold", 4, 1, 1'000'000));
  s.breaker.cooldown_ms =
      args.get_double_checked("breaker-cooldown-ms", 50.0, 0, 1e9);
  s.engine.gpu = sim::GpuSpec::v100_scaled(
      static_cast<int>(args.get_int_checked("gpu-scale", 1, 1, 1000)));
  const double mem_gb = args.get_double_checked("device-mem-gb", 0.0, 0, 1e6);
  if (mem_gb > 0) {
    s.engine.device_memory_bytes =
        static_cast<std::int64_t>(mem_gb * (1LL << 30));
  }

  // Fault storm: one recurring-fault window, optionally disarmed later.
  const std::int64_t storm_at =
      args.get_int_checked("storm-at", -1, -1, kSeqMax);
  if (storm_at >= 0) {
    serve::StormEvent on;
    on.at_request = storm_at;
    on.plan.oom_every = args.get_int_checked("storm-oom-every", 0, 0, kSeqMax);
    on.plan.oom_burst_len =
        args.get_int_checked("storm-oom-burst", 1, 1, kSeqMax);
    on.plan.launch_every =
        args.get_int_checked("storm-launch-every", 0, 0, kSeqMax);
    on.plan.launch_burst_len =
        args.get_int_checked("storm-launch-burst", 1, 1, kSeqMax);
    TLP_CHECK_MSG(on.plan.any(),
                  "--storm-at needs at least one of --storm-oom-every / "
                  "--storm-launch-every");
    s.storms.push_back(on);
    const std::int64_t stop =
        args.get_int_checked("storm-stop-at", -1, -1, kSeqMax);
    if (stop >= 0) {
      TLP_CHECK_MSG(stop > storm_at,
                    "--storm-stop-at " << stop << " must be after --storm-at "
                                       << storm_at);
      s.storms.push_back({stop, sim::FaultPlan{}});
    }
  } else {
    for (const char* f : {"storm-oom-every", "storm-launch-every",
                          "storm-stop-at"}) {
      TLP_CHECK_MSG(!args.has(f),
                    "--" << f << " requires --storm-at to anchor the storm");
    }
  }
  return s;
}

/// Parses the cache flags. --cache-policy anchors the group (mirrors the
/// storm flags): without it the other cache flags are rejected and the
/// server runs cacheless.
std::optional<serve::FeatureCacheOptions> cache_options(const Args& args) {
  if (!args.has("cache-policy")) {
    for (const char* f : {"cache-ratio", "cache-rounds"}) {
      TLP_CHECK_MSG(!args.has(f),
                    "--" << f << " requires --cache-policy to attach a cache");
    }
    return std::nullopt;
  }
  serve::FeatureCacheOptions c;
  c.policy = serve::cache_policy_from_name(args.get_choice(
      "cache-policy", "presample", {"presample", "degree", "none"}));
  c.cache_ratio = args.get_double_checked("cache-ratio", 0.10, 0, 1);
  c.warmup_rounds =
      static_cast<int>(args.get_int_checked("cache-rounds", 3, 0, 1024));
  return c;
}

void print_report(const serve::SloReport& r) {
  TextTable t({"SLO metric", "value"});
  t.add_row({"requests", std::to_string(r.total)});
  t.add_row({"ok / retried / degraded",
             std::to_string(r.ok) + " / " + std::to_string(r.retried) +
                 " / " + std::to_string(r.degraded)});
  t.add_row({"rejected / failed",
             std::to_string(r.rejected) + " / " + std::to_string(r.failed)});
  t.add_row({"p50 latency", fixed(r.p50_ms, 3) + " ms"});
  t.add_row({"p99 latency", fixed(r.p99_ms, 3) + " ms"});
  t.add_row({"mean / max latency",
             fixed(r.mean_ms, 3) + " / " + fixed(r.max_ms, 3) + " ms"});
  t.add_row({"throughput", fixed(r.throughput_rps, 1) + " req/s"});
  t.add_row({"makespan", fixed(r.makespan_ms, 2) + " ms"});
  t.add_row({"error rate", pct(r.error_rate)});
  t.add_row({"degradation rate", pct(r.degradation_rate)});
  t.add_row({"rejection rate", pct(r.rejection_rate)});
  t.add_row({"deadline misses", std::to_string(r.deadline_misses)});
  t.add_row({"direct / fallback attempts",
             std::to_string(r.direct_attempts) + " / " +
                 std::to_string(r.fallback_attempts)});
  t.add_row({"breaker opens", std::to_string(r.breaker_opens)});
  if (r.cache_policy != "off") {
    t.add_row({"cache policy / pinned rows",
               r.cache_policy + " / " + std::to_string(r.cache_pinned_rows)});
    t.add_row({"cache hit ratio", pct(r.cache_hit_ratio)});
    t.add_row({"cache hit / miss rows",
               std::to_string(r.cache_hit_rows) + " / " +
                   std::to_string(r.cache_miss_rows)});
    t.add_row({"cache gather time", fixed(r.cache_gather_ms, 3) + " ms"});
  }
  t.print();
}

std::string outcome_sequence(const std::vector<serve::Response>& responses) {
  std::string seq;
  seq.reserve(responses.size());
  for (const auto& r : responses) {
    seq.push_back(
        static_cast<char>(std::toupper(serve::outcome_name(r.outcome)[0])));
  }
  return seq;
}

/// Bit-compares responses served in both runs. A storm may change *which*
/// requests get served, never *what* a served request receives.
int verify_against_fault_free(const std::vector<serve::Response>& storm,
                              const std::vector<serve::Response>& clean) {
  const serve::ServedComparison cmp = serve::compare_served(storm, clean);
  for (const std::int64_t id : cmp.mismatched) {
    const auto i = static_cast<std::size_t>(id);
    std::fprintf(stderr, "verify: req %lld output differs (%s vs %s)\n",
                 static_cast<long long>(id),
                 serve::outcome_name(storm[i].outcome),
                 serve::outcome_name(clean[i].outcome));
  }
  std::printf("verify: %lld served in both runs, %lld bitwise mismatches\n",
              static_cast<long long>(cmp.served_in_both),
              static_cast<long long>(cmp.mismatched.size()));
  return cmp.mismatched.empty() ? 0 : 1;
}

void print_usage(std::FILE* to) {
  std::fprintf(to, "tlpserve: request-driven serving over the simulator\n"
                   "flags:");
  for (const std::string& f : known_flags()) std::fprintf(to, " --%s", f.c_str());
  std::fprintf(to, "\n(see the header of tools/tlpserve.cpp for semantics)\n");
}

int run(const Args& args) {
  const graph::Csr g = load_graph(args);
  const models::ModelKind kind = parse_model(args);
  const std::int64_t f = args.get_int_checked("feature", 32, 1, 1 << 16);
  const int heads = static_cast<int>(args.get_int_checked("heads", 1, 1, 64));
  const bool quiet = args.get_bool("quiet", false);

  Rng rng(static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0,
                                                          kSeqMax)));
  const tensor::Tensor feat = tensor::Tensor::random(g.num_vertices(), f, rng);
  const models::ConvSpec spec = models::ConvSpec::make(kind, f, rng, heads);

  const serve::TrafficOptions topts = traffic_options(args);
  const serve::ServerOptions sopts = server_options(args);
  const std::vector<serve::Request> traffic =
      serve::generate_traffic(g, feat, topts);

  if (!quiet) {
    std::printf("tlpserve | %s | %s | %lld requests (%s arrivals)%s\n",
                models::model_name(kind), g.summary().c_str(),
                static_cast<long long>(topts.num_requests),
                topts.arrival == serve::ArrivalProcess::kPoisson ? "poisson"
                                                                 : "bursty",
                sopts.storms.empty() ? "" : " | fault storm armed");
  }

  const std::optional<serve::FeatureCacheOptions> copts = cache_options(args);
  std::optional<serve::FeatureCache> cache;
  if (copts) cache.emplace(g, feat, topts, *copts);

  serve::Server server(sopts, cache ? &*cache : nullptr);
  const serve::ServeResult res = server.run(traffic, spec);
  if (!quiet) print_report(res.report);

  int rc = 0;
  if (args.get_bool("verify", false)) {
    serve::ServerOptions clean_opts = sopts;
    clean_opts.storms.clear();
    // The twin gets its own cache (same deterministic pinned set) so its
    // stats do not pollute the storm run's accounting.
    std::optional<serve::FeatureCache> twin_cache;
    if (copts) twin_cache.emplace(g, feat, topts, *copts);
    serve::Server clean(clean_opts, twin_cache ? &*twin_cache : nullptr);
    const serve::ServeResult twin = clean.run(traffic, spec);
    rc = verify_against_fault_free(res.responses, twin.responses);
  }

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    report::Json doc = report::Json::object();
    doc.set("schema", "tlpserve-v1");
    doc.set("model", models::model_name(kind));
    doc.set("requests", topts.num_requests);
    doc.set("storm", !sopts.storms.empty());
    doc.set("outcome_sequence", outcome_sequence(res.responses));
    doc.set("slo", res.report.to_json());
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << doc.dump();
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const tlp::Args args(argc, argv);
  try {
    if (args.get_bool("help", false)) {
      print_usage(stdout);
      return 0;
    }
    if (const auto unknown = args.first_unknown(known_flags())) {
      std::fprintf(stderr, "error: unknown flag --%s\n", unknown->c_str());
      print_usage(stderr);
      return 2;
    }
    return run(args);
  } catch (const tlp::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const tlp::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
