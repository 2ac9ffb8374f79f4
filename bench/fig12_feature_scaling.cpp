// Figure 12 reproduction: scalability against feature size. Runtime
// normalized to feature size 16, swept to 512, on the four largest dataset
// replicas for all four models.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "suite.hpp"

using namespace tlp;
using bench::BenchConfig;
using models::ModelKind;

namespace {

int run(const Args& args, bench::Reporter& rep) {
  const BenchConfig cfg =
      BenchConfig::from_args(args, /*max_edges=*/100'000, /*feature=*/16);
  rep.set_config(cfg);
  bench::GraphCache graphs(cfg);
  const std::vector<std::int64_t> sizes{16, 32, 64, 128, 256, 512};

  bench::print_header(
      "Figure 12: normalized runtime vs feature size",
      "runtime divided by the feature-16 runtime; four largest replicas");

  for (const ModelKind kind :
       {ModelKind::kGcn, ModelKind::kGin, ModelKind::kSage, ModelKind::kGat}) {
    std::printf("--- %s ---\n", models::model_name(kind));
    std::vector<std::string> header{"Data"};
    for (const auto f : sizes) header.push_back(std::to_string(f));
    TextTable t(header);
    for (const auto& ds : graph::all_datasets()) {
      if (!ds.big4) continue;
      const graph::Csr& g = graphs.get(ds.abbr);
      std::vector<std::string> cells{ds.abbr};
      double base = 0.0;
      for (const auto f : sizes) {
        const tensor::Tensor feat = bench::make_features(g, f, cfg.seed);
        Rng rng(cfg.seed);
        const models::ConvSpec spec = models::ConvSpec::make(kind, f, rng);
        sim::Device dev(bench::gpu_for(ds, cfg));
        const double ms = systems::make_system("tlpgnn")
                              ->run(dev, g, feat, spec)
                              .gpu_time_ms;
        if (f == 16) base = ms;
        rep.add(models::model_name(kind), ds.abbr, "f=" + std::to_string(f))
            .value("normalized_runtime", ms / base)
            .value("gpu_time_ms", ms);
        cells.push_back(fixed(ms / base, 1) + "x");
      }
      t.add_row(std::move(cells));
    }
    t.print();
    std::printf("\n");
  }
  std::printf(
      "paper at F=512 (32x data of F=16): GCN 41.6x, GIN 40.4x, Sage 36.7x, "
      "GAT 27.3x slower — i.e. roughly linear; F=16 runs ~1.4x faster than "
      "F=32 despite half the warp being idle\n");
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef fig12_bench = {"fig12", "scalability vs feature size", &run,
                              ""};
}  // namespace tlp::bench

TLP_BENCH_MAIN(tlp::bench::fig12_bench)
