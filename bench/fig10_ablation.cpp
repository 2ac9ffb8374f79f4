// Figure 10 reproduction: incremental technique benefits over an
// edge-centric baseline — two-level parallelism (TLP), hybrid dynamic
// workload assignment (+Hybrid), register caching (+Cache), and for GAT
// kernel fusion (+Fusion). One table per model, speedup vs baseline per
// dataset, geometric means at the bottom.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "suite.hpp"
#include "systems/tlpgnn_system.hpp"

using namespace tlp;
using bench::BenchConfig;
using models::ModelKind;

namespace {

double run_stage(const graph::Csr& g, const tensor::Tensor& feat,
                 const models::ConvSpec& spec, bool hybrid, bool cache,
                 bool fusion, const sim::GpuSpec& gpu) {
  systems::TlpgnnOptions opts;
  opts.hybrid_assignment = hybrid;
  opts.register_cache = cache;
  opts.fused_gat = fusion;
  systems::TlpgnnSystem sys(opts);
  sim::Device dev(gpu);
  return sys.run(dev, g, feat, spec).measured_ms;
}

int run(const Args& args, bench::Reporter& rep) {
  const BenchConfig cfg =
      BenchConfig::from_args(args, /*max_edges=*/150'000, /*feature=*/32);
  rep.set_config(cfg);
  bench::GraphCache graphs(cfg);

  bench::print_header(
      "Figure 10: technique benefits over the edge-centric baseline (F=" +
          std::to_string(cfg.feature_size) + ")",
      "each column adds one technique; values are speedups vs baseline");

  for (const ModelKind kind :
       {ModelKind::kGcn, ModelKind::kGin, ModelKind::kSage, ModelKind::kGat}) {
    const bool is_gat = kind == ModelKind::kGat;
    std::printf("--- %s ---\n", models::model_name(kind));
    TextTable t(is_gat
                    ? std::vector<std::string>{"Data", "TLP", "+Hybrid",
                                               "+Cache", "+Fusion"}
                    : std::vector<std::string>{"Data", "TLP", "+Hybrid",
                                               "+Cache"});
    std::vector<std::vector<double>> cols(is_gat ? 4 : 3);
    for (const auto& ds : graph::all_datasets()) {
      const graph::Csr& g = graphs.get(ds.abbr);
      const tensor::Tensor feat =
          bench::make_features(g, cfg.feature_size, cfg.seed);
      Rng rng(cfg.seed);
      const models::ConvSpec spec =
          models::ConvSpec::make(kind, cfg.feature_size, rng);

      const sim::GpuSpec gpu = bench::gpu_for(ds, cfg);
      const double base = [&] {
        sim::Device dev(gpu);
        return systems::make_system("edge")->run(dev, g, feat, spec)
            .measured_ms;
      }();

      // Stage 1 (TLP): two-level parallelism only — static assignment, no
      // register caching, unfused GAT.
      std::vector<double> stages;
      stages.push_back(run_stage(g, feat, spec, false, false, false, gpu));
      // Stage 2 (+Hybrid): hybrid dynamic workload assignment.
      stages.push_back(run_stage(g, feat, spec, true, false, false, gpu));
      // Stage 3 (+Cache): register caching.
      stages.push_back(run_stage(g, feat, spec, true, true, false, gpu));
      // Stage 4 (+Fusion, GAT only): one fused kernel.
      if (is_gat) stages.push_back(run_stage(g, feat, spec, true, true, true, gpu));

      const std::vector<std::string> stage_names{"tlp", "+hybrid", "+cache",
                                                 "+fusion"};
      std::vector<std::string> cells{ds.abbr};
      for (std::size_t i = 0; i < stages.size(); ++i) {
        const double speedup = base / stages[i];
        cols[i].push_back(speedup);
        rep.add(models::model_name(kind), ds.abbr, stage_names[i])
            .value("speedup", speedup);
        cells.push_back(fixed(speedup, 2) + "x");
      }
      t.add_row(std::move(cells));
    }
    const std::vector<std::string> stage_names{"tlp", "+hybrid", "+cache",
                                               "+fusion"};
    std::vector<std::string> avg{"geomean"};
    for (std::size_t i = 0; i < cols.size(); ++i) {
      rep.add(models::model_name(kind), "", stage_names[i])
          .value("geomean_speedup", geomean(cols[i]));
      avg.push_back(fixed(geomean(cols[i]), 2) + "x");
    }
    t.add_row(std::move(avg));
    t.print();
    std::printf("\n");
  }
  std::printf(
      "paper cumulative averages: GCN 12.9x, GIN 12.1x, Sage 11.3x, GAT 8.6x "
      "over the edge-centric baseline\n");
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef fig10_bench = {
    "fig10", "technique benefits over the edge-centric baseline", &run, ""};
}  // namespace tlp::bench
