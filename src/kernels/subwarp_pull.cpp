#include "kernels/subwarp_pull.hpp"

#include <algorithm>
#include <vector>

namespace tlp::kernels {

using models::ModelKind;
using sim::Mask;
using sim::WarpCtx;
using sim::WVec;

SubwarpPullKernel::SubwarpPullKernel(DeviceGraph g, sim::DevPtr<float> feat,
                                     sim::DevPtr<float> out,
                                     std::int64_t feature_size,
                                     SimpleConv conv, int lanes_per_vertex)
    : g_(g), feat_(feat), out_(out), f_(feature_size), conv_(conv),
      lpv_(lanes_per_vertex), vpw_(sim::kWarpSize / lanes_per_vertex) {
  TLP_CHECK(lanes_per_vertex >= 1 && lanes_per_vertex <= sim::kWarpSize);
  TLP_CHECK_MSG((lanes_per_vertex & (lanes_per_vertex - 1)) == 0,
                "lanes_per_vertex must be a power of two");
  TLP_CHECK(feature_size >= 1 && feature_size <= kMaxFeature);
  TLP_CHECK_MSG(conv.kind != ModelKind::kGat,
                "GAT is not expressible as a simple gather");
}

std::string SubwarpPullKernel::name() const {
  return "subwarp_pull_" + std::string(models::model_name(conv_.kind)) +
         "_lpv" + std::to_string(lpv_);
}

void SubwarpPullKernel::run_item(WarpCtx& warp, std::int64_t item) {
  const std::int64_t base = item * vpw_;
  const bool is_gcn = conv_.kind == ModelKind::kGcn;

  // Leader lane of each sub-warp loads that vertex's index boundary: two
  // requests, coalesced since the vertices are consecutive.
  WVec<std::int64_t> vidx{};
  Mask leaders = 0;
  for (int s = 0; s < vpw_; ++s) {
    const std::int64_t v = base + s;
    if (v >= g_.n) break;
    leaders |= Mask{1} << (s * lpv_);
    vidx[static_cast<std::size_t>(s * lpv_)] = v;
  }
  if (leaders == 0) return;
  WVec<std::int64_t> vidx1 = vidx;
  for (auto& x : vidx1) ++x;
  warp.site(TLP_SITE("subwarp_indptr"));
  const WVec<std::int64_t> starts = warp.load_i64(g_.indptr, vidx, leaders);
  const WVec<std::int64_t> ends = warp.load_i64(g_.indptr, vidx1, leaders);

  WVec<float> norm_v{};
  if (is_gcn) norm_v = warp.load_f32(g_.norm, vidx, leaders);

  std::int64_t max_deg = 0;
  for (int s = 0; s < vpw_; ++s) {
    const int lane = s * lpv_;
    if (!sim::lane_active(leaders, lane)) continue;
    max_deg = std::max(max_deg, ends[static_cast<std::size_t>(lane)] -
                                    starts[static_cast<std::size_t>(lane)]);
  }

  // Per-sub-warp accumulators (registers on real hardware).
  std::vector<float> acc(static_cast<std::size_t>(vpw_) *
                             static_cast<std::size_t>(f_),
                         0.0f);
  const int chunk = lpv_;                        // feature dims per request/sub-warp
  const int nchunks = static_cast<int>((f_ + chunk - 1) / chunk);

  for (std::int64_t it = 0; it < max_deg; ++it) {
    // Sub-warps whose edge list still has an edge `it` stay active; the rest
    // idle — this is exactly the §4.2 branch-divergence effect.
    Mask active_leaders = 0;
    WVec<std::int64_t> eidx{};
    for (int s = 0; s < vpw_; ++s) {
      const int lane = s * lpv_;
      if (!sim::lane_active(leaders, lane)) continue;
      if (it < ends[static_cast<std::size_t>(lane)] -
                   starts[static_cast<std::size_t>(lane)]) {
        active_leaders |= Mask{1} << lane;
        eidx[static_cast<std::size_t>(lane)] =
            starts[static_cast<std::size_t>(lane)] + it;
      }
    }
    warp.site(TLP_SITE("subwarp_edge_walk"));
    const WVec<std::int32_t> us = warp.load_i32(g_.indices, eidx, active_leaders);
    WVec<float> w{};
    if (is_gcn) {
      WVec<std::int64_t> uidx{};
      for (int s = 0; s < vpw_; ++s) {
        const int lane = s * lpv_;
        if (sim::lane_active(active_leaders, lane))
          uidx[static_cast<std::size_t>(lane)] = us[static_cast<std::size_t>(lane)];
      }
      const WVec<float> norm_u = warp.load_f32(g_.norm, uidx, active_leaders);
      for (int s = 0; s < vpw_; ++s) {
        const int lane = s * lpv_;
        w[static_cast<std::size_t>(lane)] =
            norm_u[static_cast<std::size_t>(lane)] *
            norm_v[static_cast<std::size_t>(lane)];
      }
      warp.charge_alu(1);
    }

    for (int c = 0; c < nchunks; ++c) {
      // Sub-warp s reads dims dim0.. of its neighbour's row on lanes
      // s*lpv..: one run per active sub-warp.
      const std::int64_t dim0 = static_cast<std::int64_t>(c) * chunk;
      const int n = static_cast<int>(std::min<std::int64_t>(chunk, f_ - dim0));
      WVec<std::int64_t> row{};
      Mask runs = 0;
      for (int s = 0; s < vpw_; ++s) {
        const int lane0 = s * lpv_;
        if (!sim::lane_active(active_leaders, lane0)) continue;
        runs |= Mask{1} << s;
        const auto u = static_cast<std::int64_t>(us[static_cast<std::size_t>(lane0)]);
        row[static_cast<std::size_t>(s)] = u * f_ + dim0;
      }
      if (runs == 0) continue;
      warp.site(TLP_SITE("subwarp_nbr_gather"));
      const WVec<float> x = warp.load_f32_runs(feat_, row, runs, lpv_, n);
      for (int s = 0; s < vpw_; ++s) {
        if (((runs >> s) & 1u) == 0) continue;
        const int lane0 = s * lpv_;
        const float ws = is_gcn ? w[static_cast<std::size_t>(lane0)] : 1.0f;
        float* const a = &acc[static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(f_) +
                              static_cast<std::size_t>(dim0)];
        for (int k = 0; k < n; ++k)
          a[k] += ws * x[static_cast<std::size_t>(lane0 + k)];
      }
      warp.charge_alu(1);
    }
    warp.charge_alu(1);  // loop bookkeeping
  }

  // Epilogue: self term / mean, then stores with the same lane layout: one
  // run per vertex of the warp, through the same path as the neighbour
  // gather.
  warp.site(TLP_SITE("subwarp_epilogue"));
  for (int c = 0; c < nchunks; ++c) {
    const std::int64_t dim0 = static_cast<std::int64_t>(c) * chunk;
    const int n = static_cast<int>(std::min<std::int64_t>(chunk, f_ - dim0));
    WVec<std::int64_t> row{};
    WVec<float> val{};
    Mask runs = 0;
    for (int s = 0; s < vpw_; ++s) {
      const int lane0 = s * lpv_;
      if (!sim::lane_active(leaders, lane0)) continue;
      runs |= Mask{1} << s;
      row[static_cast<std::size_t>(s)] = (base + s) * f_ + dim0;
      const std::int64_t deg = ends[static_cast<std::size_t>(lane0)] -
                               starts[static_cast<std::size_t>(lane0)];
      for (int k = 0; k < n; ++k) {
        float a = acc[static_cast<std::size_t>(s) * static_cast<std::size_t>(f_) +
                      static_cast<std::size_t>(dim0 + k)];
        if (conv_.kind == ModelKind::kSage && deg > 0)
          a /= static_cast<float>(deg);
        val[static_cast<std::size_t>(lane0 + k)] = a;
      }
    }
    if (conv_.kind == ModelKind::kGcn || conv_.kind == ModelKind::kGin) {
      const WVec<float> self = warp.load_f32_runs(feat_, row, runs, lpv_, n);
      for (int s = 0; s < vpw_; ++s) {
        if (((runs >> s) & 1u) == 0) continue;
        const int lane0 = s * lpv_;
        const float scale =
            conv_.kind == ModelKind::kGcn
                ? norm_v[static_cast<std::size_t>(lane0)] *
                      norm_v[static_cast<std::size_t>(lane0)]
                : 1.0f + conv_.gin_eps;
        for (int k = 0; k < n; ++k)
          val[static_cast<std::size_t>(lane0 + k)] +=
              scale * self[static_cast<std::size_t>(lane0 + k)];
      }
      warp.charge_alu(2);
    }
    warp.store_f32_runs(out_, row, val, runs, lpv_, n);
  }
}

}  // namespace tlp::kernels
