// GnnSystem: the common interface all framework replicas implement.
//
// A system takes a graph + feature matrix + model spec, runs its kernel
// strategy on a simulated Device, and returns the convolution output together
// with the Nsight-style metrics. The four systems the paper compares — TLPGNN
// and the DGL-like / GNNAdvisor-like / FeatGraph-like replicas — plus the
// micro baselines (push / edge-centric / pull) all live behind this
// interface; see DESIGN.md §1 for what each replica preserves.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "models/model.hpp"
#include "models/reference.hpp"
#include "sim/device.hpp"
#include "tensor/tensor.hpp"

namespace tlp::systems {

/// Host-side cost model of the framework wrapping the kernels.
struct OverheadModel {
  /// Per-kernel host dispatch cost visible in a tight measurement loop
  /// (CUDA driver + C++ glue). Included in `measured_ms` (Table 5 numbers).
  double dispatch_us_per_kernel = 10.0;
  /// Per-kernel framework cost (Python layer, tensor bookkeeping). The
  /// "Runtime - GPU time" gap of Table 3.
  double framework_ms_per_kernel = 0.3;
};

/// How a run that hit device OutOfMemory was completed anyway (Engine::conv
/// falls back to running the convolution over partitioned subgraphs).
struct Degradation {
  bool degraded = false;
  int partitions = 0;  ///< subgraphs the final successful attempt used
  int retries = 0;     ///< failed attempts before the successful one
  std::string reason;  ///< message of the error that triggered degradation
};

struct RunResult {
  tensor::Tensor output;
  sim::Metrics metrics;       ///< aggregated over this run's launches
  double gpu_time_ms = 0;     ///< kernel time + device launch overhead
  double measured_ms = 0;     ///< gpu_time + per-kernel dispatch (Table 5)
  double runtime_ms = 0;      ///< measured + framework overhead (Table 3)
  double preprocessing_ms = 0;  ///< host-side preprocessing (GNNAdvisor)
  int kernel_launches = 0;
  std::int64_t peak_device_bytes = 0;
  Degradation degradation;    ///< default: not degraded
};

class GnnSystem {
 public:
  virtual ~GnnSystem() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Whether this system can run the given model (GNNAdvisor implements only
  /// GCN and GIN) at the given scale (it crashed on the paper's four largest
  /// graphs; `big_graph` mirrors that support matrix).
  [[nodiscard]] virtual bool supports(models::ModelKind kind,
                                      bool big_graph) const {
    (void)kind;
    (void)big_graph;
    return true;
  }

  /// Runs one graph-convolution operation. Resets `dev` (memory + profile)
  /// at entry so the returned metrics cover exactly this run.
  virtual RunResult run(sim::Device& dev, const graph::Csr& g,
                        const tensor::Tensor& feat,
                        const models::ConvSpec& spec) = 0;
};

/// Collects output + metrics once a system's kernels have all been launched.
RunResult finalize_run(sim::Device& dev, tensor::Tensor output,
                       const OverheadModel& overhead);

/// Factory for every system by name: one of system_names(). Throws
/// CheckError on unknown names.
std::unique_ptr<GnnSystem> make_system(const std::string& name);

/// Every name make_system accepts: the paper's baselines and TLPGNN, in
/// lint-report order.
std::vector<std::string> system_names();

/// All comparable system names in Table 5 order.
std::vector<std::string> table5_system_names();

}  // namespace tlp::systems
