// Table 1 reproduction: push vs edge-centric vs GNNAdvisor vs pull for GCN
// over the Ovcar-8h replica with feature size 128, recording the metric rows
// the paper profiles with Nsight Compute (§3.1).
#include <string>

#include "bench_common.hpp"
#include "suite.hpp"

using namespace tlp;
using bench::BenchConfig;

namespace {

int run(const Args& args, bench::Reporter& rep) {
  const BenchConfig cfg = BenchConfig::from_args(args, /*max_edges=*/400'000,
                                                 /*feature=*/128);
  rep.set_config(cfg);
  const auto& spec = graph::dataset_by_abbr("OH");
  const graph::Csr g = graph::make_dataset(spec, cfg.replica);
  const tensor::Tensor feat =
      bench::make_features(g, cfg.feature_size, cfg.seed);
  const sim::GpuSpec gpu = bench::gpu_for(spec, cfg);
  for (const std::string name : {"push", "edge", "gnnadvisor", "pull"}) {
    rep.add_run("", spec.abbr, name,
                bench::run_system(name, models::ModelKind::kGcn, g, feat,
                                  cfg.seed, gpu));
  }
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef table1_bench = {
    "table1", "impact of atomic operations (GCN, ovcar-8h replica)", &run, ""};
}  // namespace tlp::bench
