// Table 2 reproduction: one-thread-per-vertex vs half-warp-per-vertex GCN
// aggregation (§3.2) — the coalesced-memory-access study — plus a full
// lanes-per-vertex sweep as an extension ablation.
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/subwarp_pull.hpp"
#include "suite.hpp"

using namespace tlp;
using bench::BenchConfig;

namespace {

struct LpvResult {
  double runtime_ms;
  double sectors_per_request;
  double l1_hit;
  double scoreboard;
};

LpvResult run_lpv(const graph::Csr& g, const tensor::Tensor& feat, int lpv,
                  const sim::GpuSpec& gpu) {
  sim::Device dev(gpu);
  const kernels::DeviceGraph dg = kernels::upload_graph(dev, g);
  const auto dfeat = kernels::upload_features(dev, feat);
  auto dout = dev.alloc_zeroed<float>(dg.n * feat.cols());
  kernels::SubwarpPullKernel k(dg, dfeat, dout, feat.cols(),
                               {models::ModelKind::kGcn, 0.0f}, lpv);
  dev.launch(k, {});
  const sim::Metrics m = dev.metrics();
  return {m.gpu_time_ms, m.sectors_per_request, m.l1_hit_rate,
          m.scoreboard_stall};
}

report::Record& record_lpv(bench::Reporter& rep, const std::string& variant,
                           const LpvResult& r) {
  return rep.add("", "PD", variant)
      .value("runtime_ms", r.runtime_ms)
      .value("sectors_per_request", r.sectors_per_request)
      .value("l1_hit_rate", r.l1_hit)
      .value("scoreboard_stall", r.scoreboard);
}

int run(const Args& args, bench::Reporter& rep) {
  const BenchConfig cfg =
      BenchConfig::from_args(args, /*max_edges=*/300'000, /*feature=*/128);
  rep.set_config(cfg);
  const auto& spec = graph::dataset_by_abbr("PD");
  const graph::Csr g = graph::make_dataset(spec, cfg.replica);
  const tensor::Tensor feat =
      bench::make_features(g, cfg.feature_size, cfg.seed);

  bench::print_header(
      "Table 2: coalesced memory access (GCN, pubmed replica, F=" +
          std::to_string(cfg.feature_size) + ")",
      "replica " + g.summary());

  const sim::GpuSpec gpu = bench::gpu_for(spec, cfg);
  const auto measure = [&](int lpv, const std::string& variant) {
    const LpvResult m = run_lpv(g, feat, lpv, gpu);
    record_lpv(rep, variant, m);
    return m;
  };
  const LpvResult one = measure(1, "one-thread");
  const LpvResult half = measure(16, "half-warp");

  TextTable t({"Metrics", "One Thread", "Half Warp"});
  t.add_row({"Runtime (ms)", fixed(one.runtime_ms, 3), fixed(half.runtime_ms, 3)});
  t.add_row({"Sector per request", fixed(one.sectors_per_request, 1),
             fixed(half.sectors_per_request, 1)});
  t.add_row({"L1 cache hit", pct(one.l1_hit), pct(half.l1_hit)});
  t.add_row({"Long scoreboard (cyc/instr)", fixed(one.scoreboard, 1),
             fixed(half.scoreboard, 1)});
  t.print();
  std::printf("\nhalf-warp speedup over one-thread: %sx (paper: 27.3x, "
              "sectors 9.2 vs 2.1)\n",
              fixed(one.runtime_ms / half.runtime_ms, 1).c_str());

  // Extension: the full sub-warp width sweep (1..32 lanes per vertex).
  std::printf("\nLanes-per-vertex sweep (extension ablation):\n");
  TextTable sweep({"lanes/vertex", "runtime (ms)", "sectors/req", "L1 hit"});
  for (const int lpv : {1, 2, 4, 8, 16, 32}) {
    const LpvResult r = measure(lpv, "lpv=" + std::to_string(lpv));
    sweep.add_row({std::to_string(lpv), fixed(r.runtime_ms, 3),
                   fixed(r.sectors_per_request, 1), pct(r.l1_hit)});
  }
  sweep.print();
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef table2_bench = {
    "table2", "coalesced memory access (GCN, pubmed replica)", &run, ""};
}  // namespace tlp::bench
