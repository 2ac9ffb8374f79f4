#include "core/engine.hpp"

#include <algorithm>

#include "systems/partitioned.hpp"
#include "tensor/dense_ops.hpp"

namespace tlp {

namespace {

/// Partitioned attempts of the OutOfMemory fallback, starting at two parts
/// and doubling per attempt.
constexpr int kInitialPartitions = 2;
constexpr int kMaxDegradeAttempts = 4;

sim::GpuSpec effective_spec(const EngineOptions& opts) {
  sim::GpuSpec spec = opts.gpu;
  if (opts.device_memory_bytes > 0) spec.memory_bytes = opts.device_memory_bytes;
  return spec;
}

}  // namespace

Engine::Engine(const EngineOptions& opts)
    : opts_(opts),
      device_(std::make_unique<sim::Device>(effective_spec(opts),
                                            opts.device)) {}

systems::RunResult Engine::conv(const graph::Csr& g,
                                const tensor::Tensor& feat,
                                const models::ConvSpec& spec) {
  TLP_CHECK_MSG(feat.rows() == g.num_vertices(),
                "feature rows " << feat.rows() << " != vertices "
                                << g.num_vertices());
  try {
    systems::RunResult r = system_.run(*device_, g, feat, spec);
    last_ = r;
    return r;
  } catch (const OutOfMemory& oom) {
    if (!opts_.degrade) throw;
    systems::RunResult r = conv_degraded(g, feat, spec, oom);
    last_ = r;
    return r;
  }
}

systems::RunResult Engine::conv_degraded(const graph::Csr& g,
                                         const tensor::Tensor& feat,
                                         const models::ConvSpec& spec,
                                         const OutOfMemory& oom) {
  // Bounded retries: double the part count each attempt so the per-part
  // footprint shrinks geometrically. A part can never be smaller than one
  // vertex, so cap the count at |V|.
  if (g.num_vertices() < 2) throw oom;  // nothing left to split
  int k = kInitialPartitions;
  for (int attempt = 0; attempt < kMaxDegradeAttempts; ++attempt) {
    k = std::min<int>(k, g.num_vertices());
    try {
      systems::RunResult r =
          systems::run_partitioned(system_, *device_, g, feat, spec, k);
      r.degradation.retries = attempt;
      r.degradation.reason = oom.what();
      return r;
    } catch (const OutOfMemory&) {
      if (attempt + 1 >= kMaxDegradeAttempts) throw;
      k *= 2;
    }
  }
  throw oom;  // unreachable: the loop either returns or rethrows
}

tensor::Tensor Engine::layer(const graph::Csr& g, const tensor::Tensor& h,
                             const tensor::Tensor& weights,
                             const models::ConvSpec& spec, bool relu) {
  // Phase 1: dense neural op (host).
  const tensor::Tensor transformed = tensor::matmul(h, weights);
  // Phase 2: graph convolution (simulated GPU, measured).
  systems::RunResult r = conv(g, transformed, spec);
  // Phase 3: activation (host).
  tensor::Tensor out = relu ? tensor::relu(r.output) : std::move(r.output);
  last_.output = out;
  return out;
}

}  // namespace tlp
