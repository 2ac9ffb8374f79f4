// Shared harness code for the table/figure/extension benches, all run by
// tools/tlpbench (DESIGN.md §9).
//
// Each bench is a `BenchDef` whose entry point `int run(const BenchConfig&,
// Reporter&)` receives the config tlpbench built from its flags before the
// first bench ran:
//   --max-edges N   replica edge cap (default per BenchDef)
//   --full          paper-scale replicas (slow!)
//   --feature F     feature size override (default per BenchDef)
//   --seed S        experiment seed
// plus the flags only some benches take: fig11's --min-vertices and the
// serve benches' --requests, whose defaults their BenchDef carries (shown by
// `tlpbench --list`). bench/suite.hpp registers every bench.
//
// A bench only measures: `run` adds records to its Reporter and prints
// nothing. tlpbench prints each bench's EXPERIMENTS.md section from those
// records through report::render_bench_md.
#pragma once

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "kernels/conv_common.hpp"
#include "models/reference.hpp"
#include "report/report.hpp"
#include "systems/system.hpp"

namespace tlp::bench {

struct BenchConfig {
  graph::ReplicaOptions replica;
  std::int64_t feature_size = 32;
  std::uint64_t seed = 42;
  std::int64_t requests = 0;  ///< traffic length (the serve benches)
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

/// Structured-result sink handed to every bench entry point: appends the
/// bench's records to its `report::BenchResult`.
class Reporter {
 public:
  explicit Reporter(report::BenchResult& out) : out_(out) {}

  /// Starts a record for one measured configuration; chain `.value(...)`.
  report::Record& add(const std::string& section, const std::string& dataset,
                      const std::string& variant) {
    report::Record r;
    r.section = section;
    r.dataset = dataset;
    r.variant = variant;
    out_.records.push_back(std::move(r));
    return out_.records.back();
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
  report::BenchResult& out_;
};

/// One bench's registration (bench/suite.cpp holds the full table).
struct BenchDef {
  const char* name;         ///< suite id, e.g. "table1" (`tlpbench --only`)
  const char* title;        ///< one-line description
  int (*fn)(const BenchConfig& cfg, Reporter& rep);
  std::int64_t max_edges;   ///< default --max-edges
  std::int64_t feature;     ///< default --feature
  std::int64_t min_vertices = 0;  ///< default --min-vertices; 0 = no flag
  std::int64_t requests = 0;      ///< default --requests; 0 = no flag
};

inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

}  // namespace tlp::bench
