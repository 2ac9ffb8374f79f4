// Quickstart: run one TLPGNN graph convolution on a synthetic graph and
// inspect the simulator's profile — the 60-second tour of the public API.
//
//   build/examples/quickstart [--vertices N] [--edges M] [--feature F]
//
// Exit codes: 0 ok, 1 bad flag value or a result that does not match the CPU
// reference, 2 unknown flag. ctest runs it as `example_quickstart`.
#include <cstdio>
#include <limits>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/format.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "kernels/conv_common.hpp"
#include "models/reference.hpp"

int main(int argc, char** argv) try {
  using namespace tlp;
  const Args args(argc, argv);
  if (const auto unknown =
          args.first_unknown({"vertices", "edges", "feature"})) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unknown->c_str());
    return 2;
  }
  const auto n = static_cast<graph::VertexId>(args.get_int_checked(
      "vertices", 10'000, 2, std::numeric_limits<graph::VertexId>::max()));
  const auto m = args.get_int_checked("edges", 80'000, 0);
  const std::int64_t f =
      args.get_int_checked("feature", 32, 1, kernels::kMaxFeature);

  // 1. Build a graph. Real applications would load their own edge list and
  //    call graph::build_csr; here we synthesize a power-law graph.
  Rng rng(7);
  const graph::Csr g = graph::power_law(n, m, 2.3, rng);
  std::printf("graph: %s\n", g.summary().c_str());

  // 2. Make input features and a model spec (GCN here).
  const tensor::Tensor feat = tensor::Tensor::random(g.num_vertices(), f, rng);
  models::ConvSpec spec;
  spec.kind = models::ModelKind::kGcn;

  // 3. Run the convolution with TLPGNN on the simulated V100.
  Engine engine;
  const systems::RunResult result = engine.conv(g, feat, spec);

  std::printf("output: %lld x %lld features\n",
              static_cast<long long>(result.output.rows()),
              static_cast<long long>(result.output.cols()));
  std::printf("kernels launched:   %d (fused — one per convolution)\n",
              result.kernel_launches);
  std::printf("simulated GPU time: %s ms\n",
              fixed(result.gpu_time_ms, 3).c_str());
  std::printf("global mem traffic: %s load, %s store, %s atomic\n",
              human_bytes(result.metrics.bytes_load).c_str(),
              human_bytes(result.metrics.bytes_store).c_str(),
              human_bytes(result.metrics.bytes_atomic).c_str());
  std::printf("achieved occupancy: %s, SM utilization: %s\n",
              pct(result.metrics.achieved_occupancy).c_str(),
              pct(result.metrics.sm_utilization).c_str());

  // 4. Check the result against the CPU reference (always true — the
  //    simulator computes, it does not approximate).
  const tensor::Tensor ref = models::reference_conv(g, feat, spec);
  const bool matches = tensor::allclose(result.output, ref, 1e-3, 1e-4);
  std::printf("matches CPU reference: %s\n", matches ? "yes" : "NO");
  return matches ? 0 : 1;
} catch (const tlp::CheckError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
