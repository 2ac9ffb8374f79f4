// Figure 12 reproduction: scalability against feature size. Runtime
// normalized to feature size 16, swept to 512, on the four largest dataset
// replicas for all four models.
#include <string>

#include "bench_common.hpp"
#include "suite.hpp"

using namespace tlp;
using bench::BenchConfig;
using models::ModelKind;

namespace {

int run(const BenchConfig& cfg, bench::Reporter& rep) {
  bench::GraphCache graphs(cfg);

  for (const ModelKind kind :
       {ModelKind::kGcn, ModelKind::kGin, ModelKind::kSage, ModelKind::kGat}) {
    for (const auto& ds : graph::all_datasets()) {
      if (!ds.big4) continue;
      const graph::Csr& g = graphs.get(ds.abbr);
      double base = 0.0;
      for (const std::int64_t f : {16, 32, 64, 128, 256, 512}) {
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
      }
    }
  }
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef fig12_bench = {"fig12", "scalability vs feature size", &run,
                              /*max_edges=*/100'000, /*feature=*/16};
}  // namespace tlp::bench
