// Table 3 reproduction: kernel-launch study for GAT's graph convolution on
// the Reddit replica with feature size 32 (§3.3): DGL's 18-kernel pipeline
// vs a three-kernel implementation vs TLPGNN's fused one-kernel design.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "suite.hpp"
#include "systems/tlpgnn_system.hpp"

using namespace tlp;
using bench::BenchConfig;

namespace {

int run(const Args& args, bench::Reporter& rep) {
  const BenchConfig cfg =
      BenchConfig::from_args(args, /*max_edges=*/1'000'000, /*feature=*/32);
  rep.set_config(cfg);
  const auto& ds = graph::dataset_by_abbr("RD");
  const graph::Csr g = graph::make_dataset(ds, cfg.replica);
  const sim::GpuSpec gpu = bench::gpu_for(ds, cfg);
  const tensor::Tensor feat =
      bench::make_features(g, cfg.feature_size, cfg.seed);
  Rng rng(cfg.seed);
  const models::ConvSpec spec =
      models::ConvSpec::make(models::ModelKind::kGat, cfg.feature_size, rng);

  bench::print_header(
      "Table 3: kernel launches for GAT graph convolution (reddit replica, "
      "F=" + std::to_string(cfg.feature_size) + ")",
      "replica " + g.summary());

  std::vector<systems::RunResult> results;
  const auto record = [&](const std::string& variant,
                          systems::GnnSystem& system) {
    sim::Device dev(gpu);
    results.push_back(system.run(dev, g, feat, spec));
    rep.add_run("", ds.abbr, variant, results.back());
  };
  record("dgl", *systems::make_system("dgl"));
  // Three-kernel implementation: TLPGNN's parallelism without fusion.
  systems::TlpgnnOptions three_kernel;
  three_kernel.fused_gat = false;
  three_kernel.overhead.framework_ms_per_kernel = 1.2;  // framework dispatch
  systems::TlpgnnSystem three(three_kernel);
  record("three-kernel", three);
  record("one-kernel", *systems::make_system("tlpgnn"));

  TextTable t({"Metrics", "DGL", "Three-Kernel", "One-Kernel"});
  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& r : results) cells.push_back(getter(r));
    t.add_row(std::move(cells));
  };
  row("GPU Kernel launch", [](const systems::RunResult& r) {
    return std::to_string(r.kernel_launches);
  });
  row("Runtime (ms)", [](const systems::RunResult& r) {
    return fixed(r.runtime_ms, 2);
  });
  row("GPU time (ms)", [](const systems::RunResult& r) {
    return fixed(r.gpu_time_ms, 2);
  });
  row("Runtime - GPU time (ms)", [](const systems::RunResult& r) {
    return fixed(r.runtime_ms - r.gpu_time_ms, 2);
  });
  row("Global mem usage", [](const systems::RunResult& r) {
    return human_bytes(static_cast<double>(r.peak_device_bytes));
  });
  row("Global mem traffics", [](const systems::RunResult& r) {
    return human_bytes(r.metrics.bytes_load + r.metrics.bytes_store +
                       r.metrics.bytes_atomic);
  });
  row("Stall long scoreboard (cyc/instr)", [](const systems::RunResult& r) {
    return fixed(r.metrics.scoreboard_stall, 1);
  });
  row("Average SM utilization", [](const systems::RunResult& r) {
    return pct(r.metrics.sm_utilization);
  });
  t.print();

  std::printf("\none-kernel speedup: %sx over DGL, %sx over three-kernel "
              "(paper: 7.5x / 4.6x)\n",
              fixed(results[0].runtime_ms / results[2].runtime_ms, 1).c_str(),
              fixed(results[1].runtime_ms / results[2].runtime_ms, 1).c_str());
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef table3_bench = {
    "table3", "kernel launches for GAT convolution (reddit replica)", &run,
    ""};
}  // namespace tlp::bench

TLP_BENCH_MAIN(tlp::bench::table3_bench)
