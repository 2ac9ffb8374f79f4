// Table 1 reproduction: push vs edge-centric vs GNNAdvisor vs pull for GCN
// over the Ovcar-8h replica with feature size 128. Prints the same metric
// rows the paper profiles with Nsight Compute (§3.1).
#include <cstdio>
#include <vector>

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

  bench::print_header(
      "Table 1: impact of atomic operations (GCN, ovcar-8h replica, F=" +
          std::to_string(cfg.feature_size) + ")",
      "replica " + g.summary());

  const std::vector<std::string> sysnames{"push", "edge", "gnnadvisor",
                                          "pull"};
  TextTable t({"Metrics", "Push", "Edge", "GnnA.", "Pull"});

  std::vector<systems::RunResult> results;
  const sim::GpuSpec gpu = bench::gpu_for(spec, cfg);
  for (const auto& name : sysnames) {
    results.push_back(bench::run_system(name, models::ModelKind::kGcn, g,
                                        feat, cfg.seed, gpu));
    rep.add_run("", spec.abbr, name, results.back());
  }

  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& r : results) cells.push_back(getter(r));
    t.add_row(std::move(cells));
  };
  row("Runtime (ms)", [](const systems::RunResult& r) {
    return fixed(r.measured_ms, 3);
  });
  row("Mem load traffics", [](const systems::RunResult& r) {
    return human_bytes(r.metrics.bytes_load);
  });
  row("Mem atomic store traffics", [](const systems::RunResult& r) {
    return human_bytes(r.metrics.bytes_atomic);
  });
  row("Stall long scoreboard (cyc/instr)", [](const systems::RunResult& r) {
    return fixed(r.metrics.scoreboard_stall, 1);
  });
  row("SM utilization", [](const systems::RunResult& r) {
    return pct(r.metrics.sm_utilization);
  });
  t.print();

  const double pull_ms = results[3].measured_ms;
  std::printf("\npull speedup: %sx over push, %sx over edge, %sx over GNNAdvisor\n",
              fixed(results[0].measured_ms / pull_ms, 2).c_str(),
              fixed(results[1].measured_ms / pull_ms, 2).c_str(),
              fixed(results[2].measured_ms / pull_ms, 2).c_str());
  std::printf("paper (V100, full scale): 1.8x / 1.6x / 5.8x; pull is atomic-free\n");
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef table1_bench = {
    "table1", "impact of atomic operations (GCN, ovcar-8h replica)", &run, ""};
}  // namespace tlp::bench

TLP_BENCH_MAIN(tlp::bench::table1_bench)
