// Figure 11 reproduction: scalability against thread count. The block count
// grows 1 -> 128 with 512 threads (16 warps) per block; speedup is reported
// relative to a single block, for the four largest dataset replicas and all
// four models.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "suite.hpp"
#include "systems/tlpgnn_system.hpp"

using namespace tlp;
using bench::BenchConfig;
using models::ModelKind;

namespace {

int run(const Args& args, bench::Reporter& rep) {
  BenchConfig cfg =
      BenchConfig::from_args(args, /*max_edges=*/300'000, /*feature=*/32);
  // Strong scaling needs many independent vertices per warp: the replicas
  // keep a large vertex population at the cost of density (see
  // ReplicaOptions::min_vertices).
  cfg.replica.min_vertices = args.get_int_checked("min-vertices", 50'000, 0);
  rep.set_config(cfg);
  bench::GraphCache graphs(cfg);

  for (const ModelKind kind :
       {ModelKind::kGcn, ModelKind::kGin, ModelKind::kSage, ModelKind::kGat}) {
    for (const auto& ds : graph::all_datasets()) {
      if (!ds.big4) continue;
      const graph::Csr& g = graphs.get(ds.abbr);
      const tensor::Tensor feat =
          bench::make_features(g, cfg.feature_size, cfg.seed);
      Rng rng(cfg.seed);
      const models::ConvSpec spec =
          models::ConvSpec::make(kind, cfg.feature_size, rng);

      double single = 0.0;
      for (const int blocks : {1, 2, 4, 8, 16, 32, 64, 128}) {
        systems::TlpgnnOptions opts;
        opts.grid_blocks = blocks;
        systems::TlpgnnSystem sys(opts);
        // Strong scaling runs on the full V100: the question is whether the
        // kernel can occupy more of the real machine.
        sim::Device dev(sim::GpuSpec::v100());
        const double ms = sys.run(dev, g, feat, spec).gpu_time_ms;
        if (blocks == 1) single = ms;
        rep.add(models::model_name(kind), ds.abbr,
                "blocks=" + std::to_string(blocks))
            .value("speedup", single / ms)
            .value("gpu_time_ms", ms);
      }
    }
  }
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef fig11_bench = {"fig11", "scalability vs thread count", &run,
                              "min-vertices"};
}  // namespace tlp::bench
