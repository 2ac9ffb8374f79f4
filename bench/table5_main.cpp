// Table 5 reproduction: execution times of TLPGNN vs DGL, GNNAdvisor and
// FeatGraph for GCN / GIN / GraphSage / GAT across all 11 dataset replicas,
// feature size 32, plus the per-row speedup of TLPGNN over the best baseline
// and the paper-style averages.
#include <cstdio>
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

  bench::print_header(
      "Table 5: execution times (ms) across systems, models and datasets "
      "(F=" + std::to_string(cfg.feature_size) + ")",
      "dataset replicas capped at " +
          human_count(static_cast<double>(cfg.replica.max_edges)) +
          " edges (use --full for paper scale); '-' mirrors the paper's "
          "support matrix");

  const std::vector<std::string> baselines{"dgl", "gnnadvisor", "featgraph"};
  // TLPGNN-vs-baseline speedup ratios, for the closing averages.
  std::map<std::string, std::vector<double>> speedups;

  for (const ModelKind kind :
       {ModelKind::kGcn, ModelKind::kGin, ModelKind::kSage, ModelKind::kGat}) {
    std::printf("--- %s ---\n", models::model_name(kind));
    TextTable t({"Data", "DGL", "GNNA.", "FeatG.", "TLPGNN", "Speedup"});
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
        if (times[name])
          rep.add(section, ds.abbr, name).value("measured_ms", *times[name]);
      }
      rep.add(section, ds.abbr, "tlpgnn").value("measured_ms", tlpgnn_ms);

      std::optional<double> best;
      for (const auto& name : baselines) {
        if (times[name] && (!best || *times[name] < *best)) best = *times[name];
        if (times[name])
          speedups[name].push_back(*times[name] / tlpgnn_ms);
      }
      auto cell = [&](const std::string& name) {
        return times[name] ? fixed(*times[name], 3) : std::string("-");
      };
      t.add_row({ds.abbr, cell("dgl"), cell("gnnadvisor"), cell("featgraph"),
                 fixed(tlpgnn_ms, 3),
                 best ? fixed(*best / tlpgnn_ms, 1) + "x" : "-"});
    }
    t.print();
    std::printf("\n");
  }

  std::printf("Average TLPGNN speedups (geomean over all runs):\n");
  for (const auto& name : baselines) {
    if (speedups[name].empty()) continue;
    std::printf("  vs %-11s %sx\n", name.c_str(),
                fixed(geomean(speedups[name]), 2).c_str());
    rep.add("summary", "", name)
        .value("geomean_speedup", geomean(speedups[name]));
  }
  std::printf("paper (arithmetic means, V100 full scale): DGL 5.6x, "
              "GNNAdvisor 7.7x, FeatGraph 3.3x\n");
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef table5_bench = {
    "table5", "execution times across systems, models and datasets", &run,
    ""};
}  // namespace tlp::bench

TLP_BENCH_MAIN(tlp::bench::table5_bench)
