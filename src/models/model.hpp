// GNN model zoo: the four models the paper evaluates (§7.1) and the exact
// semantics of their graph-convolution phase. Every kernel strategy in
// src/kernels and every framework replica in src/systems implements these
// same semantics, and models::reference_conv is the gold standard they are
// all tested against.
//
// Convolution semantics (h = input features, N(v) = in-neighbors of v):
//   GCN : out[v] = Σ_{u ∈ N(v) ∪ {v}} h[u] · norm(u) · norm(v)
//         with norm(x) = 1/sqrt(deg_in(x) + 1)  (self-loop added)
//   GIN : out[v] = (1 + eps) · h[v] + Σ_{u ∈ N(v)} h[u]
//   Sage: out[v] = mean_{u ∈ N(v)} h[u]          (0 when N(v) is empty)
//   GAT : e(u,v) = LeakyReLU(a_src·h[u] + a_dst·h[v])
//         out[v] = Σ_u softmax_{u ∈ N(v)}(e(u,v)) · h[u]
//         With H > 1 heads the feature axis splits into H contiguous slices
//         of F/H dims; head k attends with its own (a_src^k, a_dst^k) over
//         slice k and writes slice k of the output (concat semantics, the
//         input having been projected per-head by the dense phase).
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/csr.hpp"
#include "tensor/tensor.hpp"

namespace tlp::models {

enum class ModelKind { kGcn, kGin, kSage, kGat };

inline constexpr ModelKind kAllModels[] = {ModelKind::kGcn, ModelKind::kGin,
                                           ModelKind::kSage, ModelKind::kGat};

const char* model_name(ModelKind kind);

/// The names of kAllModels, in order ("GCN", "GIN", "Sage", "GAT").
std::vector<std::string> model_names();

/// The kind `model_name` calls `name`. Throws CheckError if there is none.
ModelKind model_from_name(const std::string& name);

/// Learned attention parameters for GAT.
struct GatParams {
  /// Attention vectors, length F total: head k owns the contiguous slice
  /// [k*F/heads, (k+1)*F/heads).
  std::vector<float> attn_src;
  std::vector<float> attn_dst;
  int heads = 1;
  float leaky_slope = 0.2f;

  [[nodiscard]] std::int64_t head_dim() const {
    return static_cast<std::int64_t>(attn_src.size()) / heads;
  }
};

/// Full description of one graph-convolution operation.
struct ConvSpec {
  ModelKind kind = ModelKind::kGcn;
  float gin_eps = 0.1f;
  GatParams gat;  ///< populated only when kind == kGat
  /// Optional per-edge feature weights in CSR edge order (Eq. 1's edge
  /// feature e_vu, here a scalar multiplier in the message function ψ).
  /// Empty = unweighted. Supported for GCN/GIN/Sage by the reference and
  /// the TLPGNN system.
  std::vector<float> edge_weights;

  [[nodiscard]] bool has_edge_weights() const { return !edge_weights.empty(); }

  /// Randomly initialized spec for a model at feature size F (the paper
  /// initializes weights to random floats). For GAT, `heads` must divide F.
  static ConvSpec make(ModelKind kind, std::int64_t feature_size, Rng& rng,
                       int heads = 1);
};

/// GCN normalization vector: norm[v] = 1/sqrt(deg_in(v) + 1). Part of the
/// graph structure, shared by every system (see DESIGN.md).
std::vector<float> gcn_norm(const graph::Csr& g);

/// Per-vertex GAT attention halves: sh[v,k] = a_src^k·h[v]|slice k,
/// dh[v,k] = a_dst^k·h[v]|slice k, stored head-interleaved (v*heads + k).
/// In a real GAT layer these are outputs of the *dense* phase (a^T (W h) is
/// a matmul by-product), so systems that fuse the convolution consume them
/// as inputs; frameworks like DGL recompute them with dedicated kernels.
struct GatHalves {
  std::vector<float> src;  ///< sh, size V*heads
  std::vector<float> dst;  ///< dh, size V*heads
};
GatHalves gat_halves(const tensor::Tensor& h, const GatParams& gat);

}  // namespace tlp::models
