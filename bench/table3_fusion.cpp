// Table 3 reproduction: kernel-launch study for GAT's graph convolution on
// the Reddit replica with feature size 32 (§3.3): DGL's 18-kernel pipeline
// vs a three-kernel implementation vs TLPGNN's fused one-kernel design.
#include <string>

#include "bench_common.hpp"
#include "suite.hpp"
#include "systems/tlpgnn_system.hpp"

using namespace tlp;
using bench::BenchConfig;

namespace {

int run(const BenchConfig& cfg, bench::Reporter& rep) {
  const auto& ds = graph::dataset_by_abbr("RD");
  const graph::Csr g = graph::make_dataset(ds, cfg.replica);
  const sim::GpuSpec gpu = bench::gpu_for(ds, cfg);
  const tensor::Tensor feat =
      bench::make_features(g, cfg.feature_size, cfg.seed);
  Rng rng(cfg.seed);
  const models::ConvSpec spec =
      models::ConvSpec::make(models::ModelKind::kGat, cfg.feature_size, rng);

  const auto record = [&](const std::string& variant,
                          systems::GnnSystem& system) {
    sim::Device dev(gpu);
    rep.add_run("", ds.abbr, variant, system.run(dev, g, feat, spec));
  };
  record("dgl", *systems::make_system("dgl"));
  // Three-kernel implementation: TLPGNN's parallelism without fusion.
  systems::TlpgnnOptions three_kernel;
  three_kernel.fused_gat = false;
  three_kernel.overhead.framework_ms_per_kernel = 1.2;  // framework dispatch
  systems::TlpgnnSystem three(three_kernel);
  record("three-kernel", three);
  record("one-kernel", *systems::make_system("tlpgnn"));
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef table3_bench = {
    "table3", "kernel launches for GAT convolution (reddit replica)", &run,
    /*max_edges=*/1'000'000, /*feature=*/32};
}  // namespace tlp::bench
