#include "sim/counters.hpp"

namespace tlp::sim {

KernelRecord& Profiler::begin_kernel(std::string name) {
  records_.emplace_back();
  records_.back().name = std::move(name);
  return records_.back();
}

Metrics Profiler::aggregate(double clock_ghz, int num_sms, int issue_width,
                            int warps_per_sm) const {
  Metrics m;
  double cycles = 0, issue = 0, mem_stall = 0, resident = 0;
  double launch_us = 0;
  std::int64_t requests = 0, sectors = 0, l1a = 0, l1h = 0;
  for (const KernelRecord& r : records_) {
    ++m.kernel_launches;
    cycles += r.elapsed_cycles;
    launch_us += r.launch_overhead_us;
    issue += r.issue_cycles;
    mem_stall += r.mem_stall_cycles + r.atomic_stall_cycles;
    resident += r.resident_warp_integral;
    requests += r.requests;
    sectors += r.sectors;
    l1a += r.l1_accesses;
    l1h += r.l1_hits;
    m.bytes_load += static_cast<double>(r.bytes_load);
    m.bytes_store += static_cast<double>(r.bytes_store);
    m.bytes_atomic += static_cast<double>(r.bytes_atomic);
    m.bytes_dram += static_cast<double>(r.bytes_dram);
  }
  m.gpu_time_ms = cycles / (clock_ghz * 1e6) + launch_us * 1e-3;
  m.sectors_per_request =
      requests == 0 ? 0.0 : static_cast<double>(sectors) / static_cast<double>(requests);
  m.l1_hit_rate = l1a == 0 ? 0.0 : static_cast<double>(l1h) / static_cast<double>(l1a);
  m.scoreboard_stall = issue == 0 ? 0.0 : mem_stall / issue;
  const double issue_capacity = cycles * num_sms * issue_width;
  m.sm_utilization = issue_capacity == 0 ? 0.0 : issue / issue_capacity;
  const double warp_capacity = cycles * num_sms * warps_per_sm;
  m.achieved_occupancy = warp_capacity == 0 ? 0.0 : resident / warp_capacity;
  if (m.achieved_occupancy > 1.0) m.achieved_occupancy = 1.0;
  if (m.sm_utilization > 1.0) m.sm_utilization = 1.0;
  return m;
}

}  // namespace tlp::sim
