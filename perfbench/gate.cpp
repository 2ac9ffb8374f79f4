#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "models/reference.hpp"

namespace tlp::perfbench {

Reference make_reference(const graph::Csr& g, const tensor::Tensor& h,
                         const models::ConvSpec& spec) {
  tensor::Tensor abs_h = h;
  for (float& x : abs_h.flat()) x = std::abs(x);
  return {models::reference_conv(g, h, spec),
          models::reference_conv(g, abs_h, spec)};
}

bool conv_matches(const tensor::Tensor& out, const Reference& ref) {
  constexpr double kRtol = 1e-3;
  constexpr double kAtol = 1e-4;
  if (out.rows() != ref.out.rows() || out.cols() != ref.out.cols())
    return false;
  const auto a = out.flat();
  const auto r = ref.out.flat();
  const auto m = ref.magnitude.flat();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = std::abs(static_cast<double>(a[i]) - r[i]);
    const double scale = std::max(std::abs(static_cast<double>(r[i])),
                                  static_cast<double>(m[i]));
    if (!(diff <= kAtol + kRtol * scale)) return false;
  }
  return true;
}

ServeCheck check_served(const serve::ServeResult& run,
                        const serve::ServeResult& twin) {
  ServeCheck c;
  c.requests = static_cast<std::int64_t>(run.responses.size());
  c.unaccounted = run.report.unaccounted;
  for (std::size_t i = 0; i < run.responses.size(); ++i) {
    const serve::Response& a = run.responses[i];
    if (!a.served()) {
      ++c.not_served;
      continue;
    }
    if (i >= twin.responses.size() || !twin.responses[i].served()) continue;
    ++c.compared;
    const std::vector<float>& b = twin.responses[i].output;
    if (a.output.size() != b.size() ||
        std::memcmp(a.output.data(), b.data(), b.size() * sizeof(float)) != 0)
      ++c.mismatched;
  }
  return c;
}

void Digest::add_bytes(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void add_records(Digest& d, std::span<const sim::KernelRecord> records) {
  for (const sim::KernelRecord& r : records) {
    d.add(r.name);
    d.add(r.warps);
    d.add(r.blocks);
    d.add(r.warps_per_block);
    d.add(r.issue_cycles);
    d.add(r.mem_stall_cycles);
    d.add(r.atomic_stall_cycles);
    d.add(r.requests);
    d.add(r.sectors);
    d.add(r.bytes_load);
    d.add(r.bytes_store);
    d.add(r.bytes_atomic);
    d.add(r.bytes_dram);
    d.add(r.l1_accesses);
    d.add(r.l1_hits);
    d.add(r.l2_accesses);
    d.add(r.l2_hits);
    d.add(r.atomic_ops);
    d.add(r.elapsed_cycles);
    d.add(r.resident_warp_integral);
    d.add(r.launch_overhead_us);
  }
}

void add_tensor(Digest& d, const tensor::Tensor& t) {
  const auto flat = t.flat();
  d.add(t.rows());
  d.add(t.cols());
  d.add_bytes(flat.data(), flat.size_bytes());
}

void add_slo(Digest& d, const serve::SloReport& r) {
  d.add(r.to_json().dump());
}

}  // namespace tlp::perfbench
