// Figure 8 reproduction: memory traffic of GNNAdvisor's atomic writes for
// the GCN and GIN models over the seven datasets it supports. TLPGNN's
// column is identically zero — its pull design needs no atomics.
#include <string>

#include "bench_common.hpp"
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

  for (const auto& ds : graph::all_datasets()) {
    if (!ds.advisor_supported) continue;
    const graph::Csr& g = graphs.get(ds.abbr);
    const tensor::Tensor feat =
        bench::make_features(g, cfg.feature_size, cfg.seed);
    const sim::GpuSpec gpu = bench::gpu_for(ds, cfg);
    const auto record = [&](const std::string& system, ModelKind kind,
                            const std::string& variant) {
      const systems::RunResult r =
          bench::run_system(system, kind, g, feat, cfg.seed, gpu);
      rep.add("", ds.abbr, variant)
          .value("bytes_atomic", r.metrics.bytes_atomic);
    };
    record("gnnadvisor", ModelKind::kGcn, "gnnadvisor-gcn");
    record("gnnadvisor", ModelKind::kGin, "gnnadvisor-gin");
    record("tlpgnn", ModelKind::kGcn, "tlpgnn");
  }
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef fig8_bench = {
    "fig8", "GNNAdvisor atomic-write traffic vs TLPGNN", &run, ""};
}  // namespace tlp::bench
