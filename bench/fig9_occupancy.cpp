// Figure 9 reproduction: achieved occupancy of the FeatGraph-like GCN
// implementation vs TLPGNN over all dataset replicas, with averages.
#include <cstdio>

#include "bench_common.hpp"
#include "common/stats.hpp"
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
      "Figure 9: achieved occupancy, FeatGraph vs TLPGNN (GCN, F=" +
          std::to_string(cfg.feature_size) + ")",
      "occupancy = time-weighted resident warps / 64 per SM");

  TextTable t({"Data", "FeatGraph", "TLPGNN"});
  std::vector<double> fg_all, tlp_all;
  for (const auto& ds : graph::all_datasets()) {
    const graph::Csr& g = graphs.get(ds.abbr);
    const tensor::Tensor feat =
        bench::make_features(g, cfg.feature_size, cfg.seed);
    const sim::GpuSpec gpu = bench::gpu_for(ds, cfg);
    const auto occupancy = [&](const std::string& system) {
      const double occ =
          bench::run_system(system, ModelKind::kGcn, g, feat, cfg.seed, gpu)
              .metrics.achieved_occupancy;
      rep.add("", ds.abbr, system).value("achieved_occupancy", occ);
      return occ;
    };
    fg_all.push_back(occupancy("featgraph"));
    tlp_all.push_back(occupancy("tlpgnn"));
    t.add_row({ds.abbr, pct(fg_all.back()), pct(tlp_all.back())});
  }
  rep.add("summary", "", "featgraph")
      .value("mean_achieved_occupancy", mean(fg_all));
  rep.add("summary", "", "tlpgnn")
      .value("mean_achieved_occupancy", mean(tlp_all));
  t.add_row({"Average", pct(mean(fg_all)), pct(mean(tlp_all))});
  t.print();
  std::printf("\npaper averages: FeatGraph 41.2%%, TLPGNN 68.2%%\n");
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef fig9_bench = {
    "fig9", "achieved occupancy, FeatGraph vs TLPGNN", &run, ""};
}  // namespace tlp::bench
