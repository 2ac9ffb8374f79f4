// Tuning ablations for the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//   (a) warps-per-block for the hardware-dynamic assignment — the §5
//       "fewer warps = better balance but more scheduling overhead" knob;
//   (b) the software pool's grab size (Algorithm 1's `step`);
//   (c) GPU generation sensitivity — the same kernels on machine specs with
//       different SM counts and bandwidth.
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/gather_pull.hpp"
#include "suite.hpp"

using namespace tlp;
using bench::BenchConfig;
using models::ModelKind;

namespace {

double run_once(const graph::Csr& g, const tensor::Tensor& feat,
                const sim::GpuSpec& gpu, const sim::LaunchConfig& cfg) {
  sim::Device dev(gpu);
  const kernels::DeviceGraph dg = kernels::upload_graph(dev, g);
  const auto dfeat = kernels::upload_features(dev, feat);
  auto dout = dev.alloc_zeroed<float>(dg.n * feat.cols());
  kernels::GatherPullKernel k(dg, dfeat, dout, feat.cols(),
                              {ModelKind::kGcn, 0.0f});
  dev.launch(k, cfg);
  return dev.gpu_time_ms();
}

int run(const Args& args, bench::Reporter& rep) {
  const BenchConfig cfg =
      BenchConfig::from_args(args, /*max_edges=*/200'000, /*feature=*/32);
  rep.set_config(cfg);
  bench::GraphCache graphs(cfg);

  bench::print_header("Tuning ablations (GCN, F=" +
                          std::to_string(cfg.feature_size) + ")",
                      "design-choice sweeps beyond the paper's figures");

  // (a) warps per block, hardware-dynamic assignment.
  std::printf("(a) warps per block — balance vs dispatch overhead (§5):\n");
  {
    TextTable t({"Data", "1", "2", "4", "8", "16", "32"});
    for (const char* abbr : {"PD", "OA", "RD"}) {
      const auto& ds = graph::dataset_by_abbr(abbr);
      const graph::Csr& g = graphs.get(abbr);
      const tensor::Tensor feat =
          bench::make_features(g, cfg.feature_size, cfg.seed);
      const sim::GpuSpec gpu = bench::gpu_for(ds, cfg);
      std::vector<std::string> cells{abbr};
      for (const int wpb : {1, 2, 4, 8, 16, 32}) {
        sim::LaunchConfig lc;
        lc.warps_per_block = wpb;
        const double ms = run_once(g, feat, gpu, lc);
        rep.add("warps_per_block", abbr, "wpb=" + std::to_string(wpb))
            .value("gpu_time_ms", ms);
        cells.push_back(fixed(ms, 3));
      }
      t.add_row(std::move(cells));
    }
    t.print();
  }

  // (b) software-pool step size.
  std::printf("\n(b) pool grab size (Algorithm 1 step), software assignment:\n");
  {
    TextTable t({"Data", "1", "4", "16", "64", "256"});
    for (const char* abbr : {"OA", "CL", "RD"}) {
      const auto& ds = graph::dataset_by_abbr(abbr);
      const graph::Csr& g = graphs.get(abbr);
      const tensor::Tensor feat =
          bench::make_features(g, cfg.feature_size, cfg.seed);
      const sim::GpuSpec gpu = bench::gpu_for(ds, cfg);
      std::vector<std::string> cells{abbr};
      for (const int step : {1, 4, 16, 64, 256}) {
        sim::LaunchConfig lc;
        lc.assignment = sim::Assignment::kSoftwarePool;
        lc.pool_step = step;
        const double ms = run_once(g, feat, gpu, lc);
        rep.add("pool_step", abbr, "step=" + std::to_string(step))
            .value("gpu_time_ms", ms);
        cells.push_back(fixed(ms, 3));
      }
      t.add_row(std::move(cells));
    }
    t.print();
  }

  // (c) machine sensitivity: V100 vs a bandwidth-poor and an SM-rich spec.
  std::printf("\n(c) machine sweep — the same TLPGNN kernel across GPUs "
              "(F=256 to reach the bandwidth-bound regime):\n");
  {
    sim::GpuSpec v100 = sim::GpuSpec::v100();
    sim::GpuSpec narrow = v100;  // half the memory bandwidth
    narrow.dram_bytes_per_cycle /= 2;
    narrow.l2_bytes_per_cycle /= 2;
    sim::GpuSpec wide = v100;  // A100-flavored: more SMs, more bandwidth
    wide.num_sms = 108;
    wide.dram_bytes_per_cycle *= 1.7;
    wide.l2_bytes_per_cycle *= 1.5;
    wide.l2_bytes = 40 << 20;

    TextTable t({"Data", "V100", "half-bandwidth", "A100-like"});
    for (const char* abbr : {"OA", "CL", "RD"}) {
      const graph::Csr& g = graphs.get(abbr);
      const tensor::Tensor feat = bench::make_features(g, 256, cfg.seed);
      const double ms_v100 = run_once(g, feat, v100, {});
      const double ms_narrow = run_once(g, feat, narrow, {});
      const double ms_wide = run_once(g, feat, wide, {});
      rep.add("machine", abbr, "v100").value("gpu_time_ms", ms_v100);
      rep.add("machine", abbr, "half-bandwidth")
          .value("gpu_time_ms", ms_narrow);
      rep.add("machine", abbr, "a100-like").value("gpu_time_ms", ms_wide);
      t.add_row({abbr, fixed(ms_v100, 3), fixed(ms_narrow, 3),
                 fixed(ms_wide, 3)});
    }
    t.print();
  }
  return 0;
}

}  // namespace

namespace tlp::bench {
const BenchDef tuning_bench = {
    "tuning", "design-choice tuning ablations (extension)", &run, ""};
}  // namespace tlp::bench
