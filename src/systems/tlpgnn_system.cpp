#include "systems/tlpgnn_system.hpp"

#include "kernels/apply_edge.hpp"
#include "kernels/apply_vertex.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/fused_gat.hpp"
#include "kernels/gather_pull.hpp"
#include "kernels/spmm.hpp"

namespace tlp::systems {

using kernels::DeviceGraph;
using models::ModelKind;

sim::Assignment hybrid_heuristic(std::int64_t num_vertices,
                                 double avg_degree) {
  if (num_vertices > 1'000'000 || avg_degree > 50.0)
    return sim::Assignment::kSoftwarePool;
  return sim::Assignment::kHardwareDynamic;
}

RunResult TlpgnnSystem::run(sim::Device& dev, const graph::Csr& g,
                            const tensor::Tensor& feat,
                            const models::ConvSpec& spec) {
  return run_with_norm(dev, g, feat, spec, nullptr);
}

RunResult TlpgnnSystem::run_with_norm(sim::Device& dev, const graph::Csr& g,
                                      const tensor::Tensor& feat,
                                      const models::ConvSpec& spec,
                                      const std::vector<float>* norm_override) {
  dev.reset_all();
  const std::int64_t f = feat.cols();
  const DeviceGraph dg = kernels::upload_graph(dev, g, norm_override);
  const sim::DevPtr<float> dfeat = kernels::upload_features(dev, feat);
  sim::DevPtr<float> dout = dev.alloc_zeroed<float>(dg.n * f);

  sim::LaunchConfig cfg;
  if (opts_.grid_blocks > 0) {
    // Fixed-grid sweep (Figure 11): a bounded warp set must cover all
    // vertices, which only the pool (or static) assignment can do.
    cfg.assignment = sim::Assignment::kSoftwarePool;
    cfg.grid_blocks = opts_.grid_blocks;
  } else if (opts_.hybrid_assignment) {
    cfg.assignment = hybrid_heuristic(g.num_vertices(), g.avg_degree());
  } else {
    cfg.assignment = sim::Assignment::kStaticChunk;
  }

  if (spec.kind == ModelKind::kGat) {
    // The attention halves el/er are by-products of the dense phase
    // (models::gat_halves) and arrive as kernel inputs, as in the original
    // TLPGNN implementation.
    const models::GatHalves halves = models::gat_halves(feat, spec.gat);
    const sim::DevPtr<float> dsh = dev.upload<float>(halves.src);
    const sim::DevPtr<float> ddh = dev.upload<float>(halves.dst);
    if (opts_.fused_gat) {
      kernels::FusedGatKernel k(dg, dfeat, dsh, ddh, dout, f,
                                spec.gat.leaky_slope, spec.gat.heads);
      dev.launch(k, cfg);
    } else {
      // Unfused fallback (the "-Fusion" ablation stage and Table 3's
      // "Three-Kernel" column): softmax kernel materializing per-edge
      // alphas, u_mul_e materializing E x F messages, then a sum — exactly
      // the global-memory round-trip fusion removes (§6).
      TLP_CHECK_MSG(spec.gat.heads == 1,
                    "the unfused GAT pipeline supports a single head");
      sim::DevPtr<float> alpha = dev.alloc_zeroed<float>(dg.m);
      kernels::GatSoftmaxKernel attn(dg, dsh, ddh, alpha,
                                     spec.gat.leaky_slope);
      dev.launch(attn, cfg);
      const kernels::DeviceCoo coo = kernels::upload_coo(dev, g);
      sim::DevPtr<float> msg = dev.alloc_zeroed<float>(dg.m * f);
      kernels::UMulEMaterializeKernel mat(coo, alpha, dfeat, msg, f);
      dev.launch(mat, cfg);
      kernels::SpmmKernel agg(dg, msg, dout, f,
                              kernels::SpmmKernel::Weighting::kMessages, {},
                              opts_.register_cache);
      dev.launch(agg, cfg);
    }
  } else {
    sim::DevPtr<float> ew{};
    if (spec.has_edge_weights()) {
      TLP_CHECK(static_cast<std::int64_t>(spec.edge_weights.size()) == dg.m);
      ew = dev.upload<float>(spec.edge_weights);
    }
    kernels::GatherPullKernel k(dg, dfeat, dout, f,
                                {spec.kind, spec.gin_eps},
                                opts_.register_cache, ew);
    dev.launch(k, cfg);
  }

  tensor::Tensor out =
      kernels::download_features(dev, dout, dg.n, f);
  return finalize_run(dev, std::move(out), opts_.overhead);
}

}  // namespace tlp::systems
