// tlp::Engine — the library's public entry point.
//
// Wraps a simulated GPU device and the TLPGNN system behind a small API:
// upload a graph once, then run graph convolutions (the paper's measured
// operation) or whole GNN layers (dense transform + convolution +
// activation, §2.1's three-phase pattern). Baseline systems are reachable
// through systems::make_system for comparisons.
//
//   tlp::Engine engine;
//   auto out = engine.conv(graph, features, spec);       // one convolution
//   auto h1  = engine.layer(graph, h0, weights, spec);   // full GNN layer
//
// Robustness: the device enforces its GpuSpec memory capacity and can run
// with guarded memory / a fault plan (EngineOptions::device). When a
// convolution hits tlp::OutOfMemory, conv() degrades gracefully instead of
// failing: it re-runs the convolution over partitioned subgraphs with
// bounded retries (doubling the part count each attempt) and reports the
// degradation in RunResult::degradation. Output stays bit-identical to the
// unpartitioned run (see systems/partitioned.hpp).
#pragma once

#include <memory>

#include "graph/csr.hpp"
#include "models/model.hpp"
#include "sim/device.hpp"
#include "systems/tlpgnn_system.hpp"
#include "tensor/tensor.hpp"

namespace tlp {

struct EngineOptions {
  sim::GpuSpec gpu = sim::GpuSpec::v100();
  /// Overrides GpuSpec::memory_bytes when > 0 (CLI --device-mem-gb).
  std::int64_t device_memory_bytes = 0;
  sim::DeviceOptions device;  ///< guarded memory mode, fault plan
  /// OutOfMemory degrades to the partitioned fallback (see conv()); false
  /// lets it propagate.
  bool degrade = true;
};

class Engine {
 public:
  Engine() : Engine(EngineOptions{}) {}
  explicit Engine(const EngineOptions& opts);

  /// Runs one graph-convolution operation with TLPGNN and returns the output
  /// features plus simulator metrics. On device OutOfMemory this degrades to
  /// partitioned execution (2, 4, 8, then 16 parts; the last OutOfMemory
  /// propagates) rather than throwing; inspect RunResult::degradation to
  /// detect the fallback.
  systems::RunResult conv(const graph::Csr& g, const tensor::Tensor& feat,
                          const models::ConvSpec& spec);

  /// A full GNN layer: dense transform (h * weights), graph convolution,
  /// then optional ReLU — the standard three-phase layer of §2.1. The dense
  /// phases run on the host; only the convolution is simulated/measured.
  tensor::Tensor layer(const graph::Csr& g, const tensor::Tensor& h,
                       const tensor::Tensor& weights,
                       const models::ConvSpec& spec, bool relu = true);

  /// Metrics of the most recent conv()/layer() call.
  [[nodiscard]] const systems::RunResult& last_run() const { return last_; }

  [[nodiscard]] sim::Device& device() { return *device_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

 private:
  systems::RunResult conv_degraded(const graph::Csr& g,
                                   const tensor::Tensor& feat,
                                   const models::ConvSpec& spec,
                                   const OutOfMemory& oom);

  EngineOptions opts_;
  std::unique_ptr<sim::Device> device_;
  systems::TlpgnnSystem system_;
  systems::RunResult last_;
};

}  // namespace tlp
