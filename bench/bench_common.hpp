// Shared harness code for the per-table/per-figure benchmark binaries.
//
// Every binary runs with no arguments using scaled-down dataset replicas
// (see DESIGN.md §1) and accepts exactly this uniform flag set (unknown
// flags are an error, exit code 2):
//   --max-edges N   replica edge cap (default varies per bench)
//   --full          paper-scale replicas (slow!)
//   --feature F     feature size override
//   --seed S        experiment seed
//   --json PATH     also write the machine-readable tlpbench report
//   --help          print the flag set and exit
// plus any bench-specific flags listed in its BenchDef (e.g. fig11's
// --min-vertices). Each bench's entry point is `int run(const Args&,
// Reporter&)`, registered via a BenchDef + TLP_BENCH_MAIN so the same code
// serves both the standalone binary and the in-process `tools/tlpbench`
// suite driver (bench/suite.hpp).
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "graph/datasets.hpp"
#include "models/reference.hpp"
#include "report/report.hpp"
#include "systems/system.hpp"

namespace tlp::bench {

struct BenchConfig {
  graph::ReplicaOptions replica;
  std::int64_t feature_size = 32;
  std::uint64_t seed = 42;

  static BenchConfig from_args(const Args& args,
                               std::int64_t default_max_edges,
                               std::int64_t default_feature) {
    BenchConfig cfg;
    cfg.replica.max_edges = args.get_int("max-edges", default_max_edges);
    cfg.replica.full = args.get_bool("full", false);
    cfg.replica.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    cfg.feature_size = args.get_int("feature", default_feature);
    cfg.seed = cfg.replica.seed;
    return cfg;
  }
};

/// Cache of replica graphs so multi-system benches build each one once.
class GraphCache {
 public:
  explicit GraphCache(const BenchConfig& cfg) : cfg_(cfg) {}

  const graph::Csr& get(const std::string& abbr) {
    auto it = cache_.find(abbr);
    if (it == cache_.end()) {
      it = cache_
               .emplace(abbr, graph::make_dataset(graph::dataset_by_abbr(abbr),
                                                  cfg_.replica))
               .first;
    }
    return it->second;
  }

 private:
  BenchConfig cfg_;
  std::map<std::string, graph::Csr> cache_;
};

/// GPU scale divisor matching a dataset replica's scale-down: a replica with
/// 1/k of the paper's edges runs on a machine with ~1/k of the V100's SMs,
/// caches, and bandwidth, so working-set:cache and compute:bandwidth ratios
/// — which decide who wins — match the full-scale experiment (DESIGN.md §1).
/// Clamped so at least 4 SMs remain.
inline int gpu_divisor(const graph::DatasetSpec& ds, const BenchConfig& cfg) {
  if (cfg.replica.full || ds.edges <= cfg.replica.max_edges) return 1;
  const double ratio =
      static_cast<double>(ds.edges) / static_cast<double>(cfg.replica.max_edges);
  return std::clamp(static_cast<int>(ratio), 1, 20);
}

inline sim::GpuSpec gpu_for(const graph::DatasetSpec& ds,
                            const BenchConfig& cfg) {
  return sim::GpuSpec::v100_scaled(gpu_divisor(ds, cfg));
}

/// Random features for a graph, deterministic per (seed, graph size).
inline tensor::Tensor make_features(const graph::Csr& g, std::int64_t f,
                                    std::uint64_t seed) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(g.num_vertices()) << 20) ^
          static_cast<std::uint64_t>(f));
  return tensor::Tensor::random(g.num_vertices(), f, rng);
}

/// Runs `system_name` on one dataset replica and returns the result.
inline systems::RunResult run_system(
    const std::string& system_name, models::ModelKind kind,
    const graph::Csr& g, const tensor::Tensor& feat, std::uint64_t seed,
    const sim::GpuSpec& gpu = sim::GpuSpec::v100()) {
  Rng rng(seed);
  const models::ConvSpec spec =
      models::ConvSpec::make(kind, feat.cols(), rng);
  sim::Device dev(gpu);
  auto sys = systems::make_system(system_name);
  return sys->run(dev, g, feat, spec);
}

inline void print_header(const std::string& title, const std::string& setup) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), setup.c_str());
}

/// Structured-result sink handed to every bench entry point. When the bench
/// runs without --json (and outside the suite driver) the reporter is
/// disabled and all records go to a scratch slot, so benches record
/// unconditionally.
class Reporter {
 public:
  Reporter() = default;
  explicit Reporter(report::BenchResult* out) : out_(out) {}

  [[nodiscard]] bool enabled() const { return out_ != nullptr; }

  /// Records the effective bench config (shown in the JSON and the rendered
  /// EXPERIMENTS.md provenance).
  void set_config(const BenchConfig& cfg) {
    if (out_ == nullptr) return;
    out_->config = report::Json::object();
    out_->config.set("max_edges", cfg.replica.max_edges);
    out_->config.set("full", cfg.replica.full);
    out_->config.set("feature", cfg.feature_size);
    out_->config.set("seed", static_cast<std::int64_t>(cfg.seed));
  }

  /// Starts a record for one measured configuration; chain `.value(...)`.
  report::Record& add(const std::string& section, const std::string& dataset,
                      const std::string& variant) {
    if (out_ == nullptr) {
      scratch_ = report::Record{};
      scratch_.variant = variant;
      return scratch_;
    }
    report::Record r;
    r.section = section;
    r.dataset = dataset;
    r.variant = variant;
    out_->records.push_back(std::move(r));
    return out_->records.back();
  }

  /// Records the uniform metric set of one system run: timings, traffic,
  /// and the derived Nsight-style ratios (see sim::Metrics for units).
  report::Record& add_run(const std::string& section,
                          const std::string& dataset,
                          const std::string& variant,
                          const systems::RunResult& r) {
    report::Record& rec = add(section, dataset, variant);
    rec.value("runtime_ms", r.runtime_ms)
        .value("measured_ms", r.measured_ms)
        .value("gpu_time_ms", r.gpu_time_ms)
        .value("kernel_launches", r.kernel_launches)
        .value("peak_device_bytes",
               static_cast<double>(r.peak_device_bytes))
        .value("bytes_load", r.metrics.bytes_load)
        .value("bytes_store", r.metrics.bytes_store)
        .value("bytes_atomic", r.metrics.bytes_atomic)
        .value("bytes_dram", r.metrics.bytes_dram)
        .value("sectors_per_request", r.metrics.sectors_per_request)
        .value("l1_hit_rate", r.metrics.l1_hit_rate)
        .value("scoreboard_stall", r.metrics.scoreboard_stall)
        .value("sm_utilization", r.metrics.sm_utilization)
        .value("achieved_occupancy", r.metrics.achieved_occupancy);
    return rec;
  }

 private:
  report::BenchResult* out_ = nullptr;
  report::Record scratch_;
};

/// One bench binary's registration: shared by its standalone main and the
/// tools/tlpbench suite driver (bench/suite.cpp holds the full table).
struct BenchDef {
  const char* name;         ///< suite id, e.g. "table1" (`tlpbench --only`)
  const char* title;        ///< one-line description
  int (*fn)(const Args& args, Reporter& rep);
  const char* extra_flags;  ///< comma-separated flags beyond the common set
};

/// Flags every bench accepts (kept in sync with the header comment above).
inline const std::vector<std::string>& common_flags() {
  static const std::vector<std::string> flags{"max-edges", "full", "feature",
                                              "seed",      "json", "help"};
  return flags;
}

inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

inline void print_usage(const BenchDef& def, std::FILE* to) {
  std::fprintf(to, "%s: %s\n", def.name, def.title);
  std::fprintf(to,
               "flags: --max-edges N  --full  --feature F  --seed S  "
               "--json PATH  --help");
  for (const std::string& f : split_csv(def.extra_flags))
    std::fprintf(to, "  --%s", f.c_str());
  std::fprintf(to, "\n");
}

/// Shared main() body for the standalone bench binaries: validate flags, run,
/// and optionally write a one-bench tlpbench JSON document (--json PATH).
inline int standalone_main(const BenchDef& def, int argc, char** argv) {
  const Args args(argc, argv);
  if (args.get_bool("help", false)) {
    print_usage(def, stdout);
    return 0;
  }
  std::vector<std::string> known = common_flags();
  for (const std::string& f : split_csv(def.extra_flags)) known.push_back(f);
  if (const auto unknown = args.first_unknown(known)) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unknown->c_str());
    print_usage(def, stderr);
    return 2;
  }

  report::BenchResult result;
  result.name = def.name;
  result.title = def.title;
  Reporter rep(args.has("json") ? &result : nullptr);
  int rc = 0;
  try {
    rc = def.fn(args, rep);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (rc == 0 && args.has("json")) {
    report::Report doc;
    doc.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    doc.benches.push_back(std::move(result));
    const std::string path = args.get("json", "");
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    out << doc.to_json().dump();
  }
  return rc;
}

// The suite library (tools/tlpbench) compiles every bench .cpp with
// TLP_BENCH_SUITE_BUILD defined, turning the per-binary main() off; the
// standalone executables compile the same file without it.
#ifdef TLP_BENCH_SUITE_BUILD
#define TLP_BENCH_MAIN(def)
#else
#define TLP_BENCH_MAIN(def)                     \
  int main(int argc, char** argv) {             \
    return tlp::bench::standalone_main(def, argc, argv); \
  }
#endif

}  // namespace tlp::bench
