// Table 2 reproduction: one-thread-per-vertex vs half-warp-per-vertex GCN
// aggregation (§3.2) — the coalesced-memory-access study — plus a full
// lanes-per-vertex sweep as an extension ablation.
#include <string>

#include "bench_common.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/subwarp_pull.hpp"
#include "suite.hpp"

using namespace tlp;
using bench::BenchConfig;

namespace {

/// Runs the sub-warp pull kernel with `lpv` lanes per vertex and records it.
void measure(bench::Reporter& rep, const graph::Csr& g,
             const tensor::Tensor& feat, int lpv, const std::string& variant,
             const sim::GpuSpec& gpu) {
  sim::Device dev(gpu);
  const kernels::DeviceGraph dg = kernels::upload_graph(dev, g);
  const auto dfeat = kernels::upload_features(dev, feat);
  auto dout = dev.alloc_zeroed<float>(dg.n * feat.cols());
  kernels::SubwarpPullKernel k(dg, dfeat, dout, feat.cols(),
                               {models::ModelKind::kGcn, 0.0f}, lpv);
  dev.launch(k, {});
  const sim::Metrics m = dev.metrics();
  rep.add("", "PD", variant)
      .value("runtime_ms", m.gpu_time_ms)
      .value("sectors_per_request", m.sectors_per_request)
      .value("l1_hit_rate", m.l1_hit_rate)
      .value("scoreboard_stall", m.scoreboard_stall);
}

int run(const Args& args, bench::Reporter& rep) {
  const BenchConfig cfg =
      BenchConfig::from_args(args, /*max_edges=*/300'000, /*feature=*/128);
  rep.set_config(cfg);
  const auto& spec = graph::dataset_by_abbr("PD");
  const graph::Csr g = graph::make_dataset(spec, cfg.replica);
  const tensor::Tensor feat =
      bench::make_features(g, cfg.feature_size, cfg.seed);
  const sim::GpuSpec gpu = bench::gpu_for(spec, cfg);
  measure(rep, g, feat, 1, "one-thread", gpu);
  measure(rep, g, feat, 16, "half-warp", gpu);
  // Extension: the full sub-warp width sweep (1..32 lanes per vertex).
  for (const int lpv : {1, 2, 4, 8, 16, 32})
    measure(rep, g, feat, lpv, "lpv=" + std::to_string(lpv), gpu);
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef table2_bench = {
    "table2", "coalesced memory access (GCN, pubmed replica)", &run, ""};
}  // namespace tlp::bench
