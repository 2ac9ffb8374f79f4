// perfbench — the repository benchmark driver.
//
//   perfbench --workload conv-large|sweep|serve --seed N --seconds S
//             --trace 0|1 [--trace-out trace.json]
//
// Runs one seeded workload on one thread, checks every output, prints each
// metric by name with its unit and clock, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans go to --trace-out as Chrome
// trace-event JSON. Exit code 0 when every check passed, 1 on a failed
// check, 2 on a usage error. See README.md for the metric definitions.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/cli.hpp"
#include "report/json.hpp"

namespace tlp::perfbench {

namespace {

struct LayerMetric {
  std::string name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A layer a workload does
/// not call reports 0.
std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> m = {
      {"graph.make_dataset_s", "s"}, {"graph.edges", "count"},
      {"tensor.random_s", "s"},      {"core.conv_s", "s"},
      {"core.degraded", "count"},    {"models.reference_s", "s"},
      {"models.check_fail", "count"}};
  for (const char* sys : {"tlpgnn", "dgl", "gnnadvisor", "featgraph"}) {
    const std::string s = sys;
    m.push_back({"systems.run_s." + s, "s"});
    m.push_back({"sim.requests." + s, "count"});
    m.push_back({"sim.host_ns_per_request." + s, "ns"});
    m.push_back({"sim.launches." + s, "count"});
    m.push_back({"sim.gpu_ms." + s, "ms"});
  }
  for (const char* b : {"dgl", "gnnadvisor", "featgraph"})
    m.push_back({std::string("systems.speedup_vs_") + b, "ratio"});
  for (LayerMetric x : std::initializer_list<LayerMetric>{
           {"sim.l1_hit_rate", "ratio"},
           {"sim.l2_hit_rate", "ratio"},
           {"sim.sectors_per_request", "sectors/req"},
           {"sim.atomic_ops", "count"},
           {"sim.bytes_dram", "bytes"},
           {"sim.op_p50_ms", "ms"},
           {"sim.op_p99_ms", "ms"},
           {"serve.run_s", "s"},
           {"serve.traffic_s", "s"},
           {"serve.cache_warmup_s", "s"},
           {"serve.queue_p50_ms", "ms"},
           {"serve.queue_p99_ms", "ms"},
           {"serve.direct_attempts", "count"},
           {"serve.fallback_attempts", "count"},
           {"serve.attempts_per_served", "ratio"},
           {"serve.cache_hit_ratio", "ratio"},
           {"serve.cache_gather_ms", "ms"},
           {"serve.breaker_opens", "count"},
           {"serve.max_rps", "1/s"},
           {"trace.overhead_s", "s"},
           {"host.slowdown", "ratio"},
           {"host.raw_run_s", "s"}})
    m.push_back(x);
  return m;
}

std::string json_value(double v, const char* unit) {
  return "{\"value\": " + report::json_number(std::isfinite(v) ? v : 0.0) +
         ", \"unit\": \"" + unit + "\"}";
}

void print_metric(const Metric& m) {
  std::printf("  %-24s %16.6f %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.clock.c_str());
}

int run(const Args& args) {
  const std::string workload = args.get("workload", "");
  RunOptions opt;
  opt.seed = static_cast<std::uint64_t>(
      args.get_int_checked("seed", 1, 0, std::int64_t{1} << 40));
  opt.seconds = args.get_double_checked("seconds", 10, 0, 3600);
  opt.trace = args.get_int_checked("trace", 0, 0, 1) == 1;
  const std::string trace_out = args.get("trace-out", "");

  WorkloadResult (*fn)(const RunOptions&, Tracer&) = nullptr;
  if (workload == "conv-large") fn = &run_conv_large;
  if (workload == "sweep") fn = &run_sweep;
  if (workload == "serve") fn = &run_serve;
  if (fn == nullptr) {
    std::fprintf(stderr,
                 "error: --workload must be conv-large, sweep or serve\n");
    return 2;
  }

  std::printf("perfbench | workload %s | seed %llu | %.0f s | trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  Tracer tracer(opt.trace);
  WorkloadResult res;
  try {
    res = fn(opt, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s aborted: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  const bool correct = res.failed == 0 && res.deterministic;

  std::printf("inputs: %s\n", res.inputs.c_str());
  std::printf("end-to-end metrics (untraced passes):\n");
  for (const Metric& m : res.end_to_end) print_metric(m);
  for (const Metric& m : res.specific) print_metric(m);
  print_metric({"fail_ratio",
                ratio(static_cast<double>(res.failed),
                      static_cast<double>(res.attempted)),
                "ratio", "-"});
  for (const std::string& line : res.notes)
    std::printf("%s\n", line.c_str());
  std::printf("correctness: %lld operations, %lld failed, repetitions %s\n",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed),
              res.deterministic ? "agree" : "DISAGREE");
  std::printf("sim digest: %s\n", res.digest.c_str());
  const PassTimes& passes = res.passes;
  std::printf("host speed: %.3fx the reference time in passes (probe %.4f "
              "s); raw setup_s %.4f, run_s %.4f, check_s %.4f\n",
              passes.slowdown(), passes.slowdown() * kReferenceProbeSeconds,
              passes.setup_s(false), passes.run_s(false),
              passes.check_s(false));
  std::printf("untraced passes, raw host seconds / slowdown:");
  for (const PassSample& p : passes.untraced)
    std::printf(" %.4f/%.3f", p.run_s, p.slowdown());
  std::printf("\n");
  res.layers["host.slowdown"] = passes.slowdown();
  res.layers["host.raw_run_s"] = passes.run_s(false);

  std::string metrics;
  if (opt.trace) {
    std::printf("per-layer metrics (traced run; self time per repetition):\n");
    for (const LayerMetric& l : layer_metrics()) {
      const double v = value_or_zero(res.layers, l.name);
      std::printf("  %-34s %18.6f %s\n", l.name.c_str(), v, l.unit);
      metrics += (metrics.empty() ? "" : ", ") + ("\"" + l.name + "\": ") +
                 json_value(v, l.unit);
    }
    if (!trace_out.empty()) {
      if (!tracer.write_chrome_json(trace_out)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("trace: %s (%zu host spans)\n", trace_out.c_str(),
                  tracer.size());
    }
  } else {
    for (const Metric& m : res.end_to_end) {
      metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name + "\": ") +
                 json_value(m.value, m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void add_host_metrics(WorkloadResult& res, const PassTimes& t,
                      std::int64_t requests) {
  const double setup_s = t.setup_s();
  const double run_s = t.run_s();
  res.end_to_end = {
      {"setup_s", setup_s, "s", "host"},
      {"run_s", run_s, "s", "host"},
      {"wall_s", setup_s + run_s + t.check_s(), "s", "host"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "host"},
  };
  res.specific.push_back(
      {"sim_mreq_per_s", ratio(static_cast<double>(requests) / 1e6, run_s),
       "Mreq/s", "host"});
}

void add_op_latency(WorkloadResult& res, const std::vector<double>& op_ms) {
  const double p50 = nearest_rank(op_ms, 0.50);
  const double p99 = nearest_rank(op_ms, 0.99);
  res.specific.push_back({"sim_p50_ms", p50, "ms", "simulated"});
  res.specific.push_back({"sim_p99_ms", p99, "ms", "simulated"});
  res.layers["sim.op_p50_ms"] = p50;
  res.layers["sim.op_p99_ms"] = p99;
}

void add_sim_layers(std::map<std::string, double>& layers,
                    const SimTotals& t) {
  layers["sim.l1_hit_rate"] = ratio(static_cast<double>(t.l1_hits),
                                    static_cast<double>(t.l1_accesses));
  layers["sim.l2_hit_rate"] = ratio(static_cast<double>(t.l2_hits),
                                    static_cast<double>(t.l2_accesses));
  layers["sim.sectors_per_request"] = ratio(
      static_cast<double>(t.sectors), static_cast<double>(t.requests));
  layers["sim.atomic_ops"] = static_cast<double>(t.atomic_ops);
  layers["sim.bytes_dram"] = static_cast<double>(t.bytes_dram);
}

}  // namespace tlp::perfbench

int main(int argc, char** argv) {
  const tlp::Args args(argc, argv);
  try {
    return tlp::perfbench::run(args);
  } catch (const tlp::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
