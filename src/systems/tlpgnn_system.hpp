// TLPGNN — the paper's system. Warp-per-vertex + feature-per-lane two-level
// parallelism, hybrid dynamic workload assignment (§5), kernel fusion and
// register caching (§6). One kernel for every model, no preprocessing.
//
// The option flags expose each technique for the Figure 10 ablation and the
// Figure 11/12 scalability sweeps.
#pragma once

#include "systems/system.hpp"

namespace tlp::systems {

struct TlpgnnOptions {
  /// Figure 10 stages: false = static contiguous chunking ("TLP" only);
  /// true = the §5 hybrid hardware/software dynamic assignment ("+Hybrid").
  bool hybrid_assignment = true;
  /// Register caching of index bounds + accumulator (§6, "+Cache").
  bool register_cache = true;
  /// Kernel fusion for GAT (§6, "+Fusion"); false = three-kernel GAT.
  bool fused_gat = true;
  /// If > 0, fixes the grid size (Figure 11's thread sweep) and forces the
  /// software-pool assignment so the fixed warp set covers all vertices.
  int grid_blocks = 0;

  OverheadModel overhead{.dispatch_us_per_kernel = 8.0,
                         .framework_ms_per_kernel = 0.5};
};

/// The §5 heuristic: software-based assignment when |V| > 1M or the average
/// degree exceeds 50, hardware-based otherwise.
sim::Assignment hybrid_heuristic(std::int64_t num_vertices, double avg_degree);

class TlpgnnSystem final : public GnnSystem {
 public:
  TlpgnnSystem() = default;
  explicit TlpgnnSystem(TlpgnnOptions opts) : opts_(opts) {}

  [[nodiscard]] std::string name() const override { return "TLPGNN"; }

  RunResult run(sim::Device& dev, const graph::Csr& g,
                const tensor::Tensor& feat,
                const models::ConvSpec& spec) override;

  /// run() with an externally supplied GCN normalization vector. The
  /// partitioned-fallback path needs this: a subgraph's owned vertices must
  /// keep their *global* norms (and halo vertices have no local in-edges at
  /// all), so recomputing norms from the local CSR would change results.
  RunResult run_with_norm(sim::Device& dev, const graph::Csr& g,
                          const tensor::Tensor& feat,
                          const models::ConvSpec& spec,
                          const std::vector<float>* norm_override);

  [[nodiscard]] const TlpgnnOptions& options() const { return opts_; }

 private:
  TlpgnnOptions opts_;
};

}  // namespace tlp::systems
