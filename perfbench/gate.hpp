// Correctness gate and simulated-statistics digest of the benchmark.
//
// Every operation the benchmark times is checked here: a convolution against
// the CPU reference, a served request against the fault-free twin session
// (bit-identical rows, full outcome accounting). The digest folds every
// KernelRecord counter and the output bytes into one number, so a change
// that claims to touch only host code can show that no simulated statistic
// moved.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/csr.hpp"
#include "models/model.hpp"
#include "serve/server.hpp"
#include "sim/counters.hpp"
#include "tensor/tensor.hpp"

namespace tlp::perfbench {

/// The CPU reference of one convolution, plus per element the magnitude of
/// the terms it sums: the reference run on |h|. For GCN, GIN and Sage every
/// coefficient is non-negative, so this is exactly Σ|term|; for GAT it is a
/// softmax-weighted mean of |h| rows, the same scale. Specs here carry no
/// edge weights.
struct Reference {
  tensor::Tensor out;
  tensor::Tensor magnitude;
};

Reference make_reference(const graph::Csr& g, const tensor::Tensor& h,
                         const models::ConvSpec& spec);

/// True when every element satisfies |out - ref| <= atol + rtol * magnitude
/// with the rtol 1e-3 / atol 1e-4 of `tlpgnn_cli --check`. Where no
/// cancellation occurs magnitude == |ref| and this is exactly
/// tensor::allclose. Where an unnormalized sum over thousands of neighbors
/// cancels to near zero, |ref| no longer bounds the rounding error of a
/// different (equally valid) summation order, but Σ|term| does.
bool conv_matches(const tensor::Tensor& out, const Reference& ref);

/// Outcome of checking one serving session against its fault-free twin.
struct ServeCheck {
  std::int64_t requests = 0;     ///< requests in the session
  std::int64_t not_served = 0;   ///< Rejected or Failed outcomes
  std::int64_t compared = 0;     ///< served in both sessions
  std::int64_t mismatched = 0;   ///< served rows that differ bitwise
  std::int64_t unaccounted = 0;  ///< SloReport::unaccounted (must be 0)

  /// Requests that count as failed operations.
  [[nodiscard]] std::int64_t failures() const {
    return not_served + mismatched + unaccounted;
  }
};

/// Checks `run` against the fault-free `twin` of the same traffic.
ServeCheck check_served(const serve::ServeResult& run,
                        const serve::ServeResult& twin);

/// FNV-1a over raw bytes; doubles are hashed bit-exactly.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t bytes);
  template <class T>
  void add(const T& v) {
    add_bytes(&v, sizeof v);
  }
  void add(const std::string& s) { add_bytes(s.data(), s.size()); }

  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Folds every counter of every record (name, shape, issue, memory, timing).
void add_records(Digest& d, std::span<const sim::KernelRecord> records);
void add_tensor(Digest& d, const tensor::Tensor& t);
/// Folds the whole SLO report, output_digest included.
void add_slo(Digest& d, const serve::SloReport& r);

}  // namespace tlp::perfbench
