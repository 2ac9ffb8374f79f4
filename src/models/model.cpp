#include "models/model.hpp"

#include <cmath>

#include "common/check.hpp"

namespace tlp::models {

const char* model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGcn:
      return "GCN";
    case ModelKind::kGin:
      return "GIN";
    case ModelKind::kSage:
      return "Sage";
    case ModelKind::kGat:
      return "GAT";
  }
  return "?";
}

std::vector<std::string> model_names() {
  std::vector<std::string> names;
  for (const ModelKind k : kAllModels) names.emplace_back(model_name(k));
  return names;
}

ModelKind model_from_name(const std::string& name) {
  for (const ModelKind k : kAllModels) {
    if (name == model_name(k)) return k;
  }
  TLP_CHECK_MSG(false, "unknown model '" << name << "'");
  __builtin_unreachable();
}

ConvSpec ConvSpec::make(ModelKind kind, std::int64_t feature_size, Rng& rng,
                        int heads) {
  ConvSpec spec;
  spec.kind = kind;
  if (kind == ModelKind::kGat) {
    TLP_CHECK_MSG(heads >= 1 && feature_size % heads == 0,
                  "heads (" << heads << ") must divide F (" << feature_size
                            << ")");
    spec.gat.heads = heads;
    spec.gat.attn_src.resize(static_cast<std::size_t>(feature_size));
    spec.gat.attn_dst.resize(static_cast<std::size_t>(feature_size));
    // Small magnitudes keep the edge softmax well-conditioned in fp32.
    for (auto& v : spec.gat.attn_src) v = (rng.next_float() * 2.0f - 1.0f) * 0.1f;
    for (auto& v : spec.gat.attn_dst) v = (rng.next_float() * 2.0f - 1.0f) * 0.1f;
  }
  return spec;
}

GatHalves gat_halves(const tensor::Tensor& h, const GatParams& gat) {
  TLP_CHECK(static_cast<std::int64_t>(gat.attn_src.size()) == h.cols());
  TLP_CHECK(static_cast<std::int64_t>(gat.attn_dst.size()) == h.cols());
  TLP_CHECK(gat.heads >= 1 && h.cols() % gat.heads == 0);
  const std::int64_t hd = gat.head_dim();
  GatHalves out;
  out.src.resize(static_cast<std::size_t>(h.rows() * gat.heads));
  out.dst.resize(static_cast<std::size_t>(h.rows() * gat.heads));
  for (std::int64_t v = 0; v < h.rows(); ++v) {
    const auto row = h.row(v);
    for (int k = 0; k < gat.heads; ++k) {
      float s = 0.0f, d = 0.0f;
      for (std::int64_t j = k * hd; j < (k + 1) * hd; ++j) {
        s += row[static_cast<std::size_t>(j)] *
             gat.attn_src[static_cast<std::size_t>(j)];
        d += row[static_cast<std::size_t>(j)] *
             gat.attn_dst[static_cast<std::size_t>(j)];
      }
      out.src[static_cast<std::size_t>(v * gat.heads + k)] = s;
      out.dst[static_cast<std::size_t>(v * gat.heads + k)] = d;
    }
  }
  return out;
}

std::vector<float> gcn_norm(const graph::Csr& g) {
  std::vector<float> norm(static_cast<std::size_t>(g.num_vertices()));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    norm[static_cast<std::size_t>(v)] =
        1.0f / std::sqrt(static_cast<float>(g.degree(v)) + 1.0f);
  }
  return norm;
}

}  // namespace tlp::models
