// GNNAdvisor-like replica (§7.2): locality-improving vertex reordering plus
// fixed-size neighbor-group workload management, with atomic combines across
// a vertex's groups (the Figure 8 traffic). Reordering and group building
// are host-side preprocessing, timed separately — the overhead TLPGNN's
// design eliminates.
//
// Mirrors the paper's support matrix: GCN and GIN only, and unavailable on
// the four largest graphs (GNNAdvisor hit illegal CUDA memory accesses
// there, shown as "-" in Table 5).
#pragma once

#include "systems/system.hpp"

namespace tlp::systems {

class GnnAdvisorSystem final : public GnnSystem {
 public:
  [[nodiscard]] std::string name() const override { return "GNNAdvisor"; }

  [[nodiscard]] bool supports(models::ModelKind kind,
                              bool big_graph) const override {
    const bool model_ok = kind == models::ModelKind::kGcn ||
                          kind == models::ModelKind::kGin;
    return model_ok && !big_graph;
  }

  RunResult run(sim::Device& dev, const graph::Csr& g,
                const tensor::Tensor& feat,
                const models::ConvSpec& spec) override;
};

}  // namespace tlp::systems
