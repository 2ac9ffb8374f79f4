#include "systems/system.hpp"

#include "common/check.hpp"
#include "systems/baseline_systems.hpp"
#include "systems/dgl_system.hpp"
#include "systems/featgraph_system.hpp"
#include "systems/gnnadvisor_system.hpp"
#include "systems/tlpgnn_system.hpp"

namespace tlp::systems {

RunResult finalize_run(sim::Device& dev, tensor::Tensor output,
                       const OverheadModel& overhead) {
  RunResult r;
  r.output = std::move(output);
  r.metrics = dev.metrics();
  r.kernel_launches = r.metrics.kernel_launches;
  r.peak_device_bytes = r.metrics.peak_device_bytes;
  r.gpu_time_ms = r.metrics.gpu_time_ms;
  r.measured_ms = r.gpu_time_ms +
                  r.kernel_launches * overhead.dispatch_us_per_kernel * 1e-3;
  r.runtime_ms = r.measured_ms +
                 r.kernel_launches * overhead.framework_ms_per_kernel;
  return r;
}

std::unique_ptr<GnnSystem> make_system(const std::string& name) {
  if (name == "tlpgnn") return std::make_unique<TlpgnnSystem>();
  if (name == "dgl") return std::make_unique<DglSystem>();
  if (name == "gnnadvisor") return std::make_unique<GnnAdvisorSystem>();
  if (name == "featgraph") return std::make_unique<FeatgraphSystem>();
  if (name == "push") return std::make_unique<PushSystem>();
  if (name == "edge") return std::make_unique<EdgeCentricSystem>();
  if (name == "pull") return std::make_unique<PullSystem>();
  TLP_CHECK_MSG(false, "unknown system '" << name << "'");
  __builtin_unreachable();
}

std::vector<std::string> system_names() {
  return {"tlpgnn", "dgl", "gnnadvisor", "featgraph", "push", "edge", "pull"};
}

std::vector<std::string> table5_system_names() {
  return {"dgl", "gnnadvisor", "featgraph", "tlpgnn"};
}

}  // namespace tlp::systems
