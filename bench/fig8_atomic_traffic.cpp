// Figure 8 reproduction: memory traffic of GNNAdvisor's atomic writes for
// the GCN and GIN models over the seven datasets it supports. TLPGNN's
// column is identically zero — its pull design needs no atomics.
#include <cstdio>

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

  bench::print_header(
      "Figure 8: GNNAdvisor atomic-write traffic (F=" +
          std::to_string(cfg.feature_size) + ")",
      "seven GNNAdvisor-supported datasets; TLPGNN shown for contrast");

  TextTable t({"Data", "GCN atomic", "GIN atomic", "TLPGNN atomic"});
  for (const auto& ds : graph::all_datasets()) {
    if (!ds.advisor_supported) continue;
    const graph::Csr& g = graphs.get(ds.abbr);
    const tensor::Tensor feat =
        bench::make_features(g, cfg.feature_size, cfg.seed);
    const sim::GpuSpec gpu = bench::gpu_for(ds, cfg);
    const auto run = [&](const std::string& system, ModelKind kind,
                         const std::string& variant) {
      systems::RunResult r =
          bench::run_system(system, kind, g, feat, cfg.seed, gpu);
      rep.add("", ds.abbr, variant)
          .value("bytes_atomic", r.metrics.bytes_atomic);
      return r;
    };
    const systems::RunResult gcn =
        run("gnnadvisor", ModelKind::kGcn, "gnnadvisor-gcn");
    const systems::RunResult gin =
        run("gnnadvisor", ModelKind::kGin, "gnnadvisor-gin");
    const systems::RunResult tlp = run("tlpgnn", ModelKind::kGcn, "tlpgnn");
    t.add_row({ds.abbr, human_bytes(gcn.metrics.bytes_atomic),
               human_bytes(gin.metrics.bytes_atomic),
               human_bytes(tlp.metrics.bytes_atomic)});
  }
  t.print();
  std::printf("\npaper: tens to hundreds of MB of atomic writes at full "
              "scale, growing with edge count; TLPGNN is exactly zero\n");
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef fig8_bench = {
    "fig8", "GNNAdvisor atomic-write traffic vs TLPGNN", &run, ""};
}  // namespace tlp::bench

TLP_BENCH_MAIN(tlp::bench::fig8_bench)
