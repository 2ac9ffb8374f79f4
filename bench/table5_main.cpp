// Table 5 reproduction: execution times of TLPGNN vs DGL, GNNAdvisor and
// FeatGraph for GCN / GIN / GraphSage / GAT across all 11 dataset replicas,
// feature size 32, plus TLPGNN's geomean speedup over each baseline (the
// rendered table derives the per-row speedup over the best baseline).
#include <map>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "suite.hpp"

using namespace tlp;
using bench::BenchConfig;
using models::ModelKind;

namespace {

int run(const Args& args, bench::Reporter& rep) {
  const BenchConfig cfg =
      BenchConfig::from_args(args, /*max_edges=*/250'000, /*feature=*/32);
  rep.set_config(cfg);
  bench::GraphCache graphs(cfg);

  const std::vector<std::string> baselines{"dgl", "gnnadvisor", "featgraph"};
  // TLPGNN-vs-baseline speedup ratios, for the closing averages.
  std::map<std::string, std::vector<double>> speedups;

  for (const ModelKind kind :
       {ModelKind::kGcn, ModelKind::kGin, ModelKind::kSage, ModelKind::kGat}) {
    for (const auto& ds : graph::all_datasets()) {
      const graph::Csr& g = graphs.get(ds.abbr);
      const tensor::Tensor feat =
          bench::make_features(g, cfg.feature_size, cfg.seed);
      Rng rng(cfg.seed);
      const models::ConvSpec spec =
          models::ConvSpec::make(kind, cfg.feature_size, rng);

      auto time_of = [&](const std::string& name) -> std::optional<double> {
        auto sys = systems::make_system(name);
        if (!sys->supports(kind, ds.big4)) return std::nullopt;
        sim::Device dev(bench::gpu_for(ds, cfg));
        return sys->run(dev, g, feat, spec).measured_ms;
      };

      std::map<std::string, std::optional<double>> times;
      for (const auto& name : baselines) times[name] = time_of(name);
      const double tlpgnn_ms = *time_of("tlpgnn");

      const std::string section = models::model_name(kind);
      for (const auto& name : baselines) {
        if (!times[name]) continue;
        rep.add(section, ds.abbr, name).value("measured_ms", *times[name]);
        speedups[name].push_back(*times[name] / tlpgnn_ms);
      }
      rep.add(section, ds.abbr, "tlpgnn").value("measured_ms", tlpgnn_ms);
    }
  }

  for (const auto& name : baselines) {
    if (speedups[name].empty()) continue;
    rep.add("summary", "", name)
        .value("geomean_speedup", geomean(speedups[name]));
  }
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef table5_bench = {
    "table5", "execution times across systems, models and datasets", &run,
    ""};
}  // namespace tlp::bench
