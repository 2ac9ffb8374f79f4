#include "graph/csr.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/format.hpp"

namespace tlp::graph {

Csr::Csr(std::vector<EdgeOffset> indptr, std::vector<VertexId> indices)
    : indptr_(std::move(indptr)), indices_(std::move(indices)) {
  validate();
}

EdgeOffset Csr::max_degree() const {
  EdgeOffset best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

Csr Csr::reversed() const {
  Csr out;
  transpose(indptr_, indices_, out.indptr_, out.indices_);
  return out;
}

void transpose(std::span<const EdgeOffset> indptr,
               std::span<const VertexId> indices,
               std::vector<EdgeOffset>& out_indptr,
               std::vector<VertexId>& out_indices) {
  const std::size_t n = indptr.empty() ? 0 : indptr.size() - 1;
  // Counts sit two slots up, and no row starts after the last one, so its
  // count is skipped. After the prefix sum out_indptr[c + 1] is where row c
  // starts: it serves as row c's cursor and ends as its end.
  out_indptr.assign(n + 1, 0);
  for (const VertexId c : indices) {
    const auto slot = static_cast<std::size_t>(c) + 2;
    if (slot <= n) out_indptr[slot]++;
  }
  for (std::size_t i = 2; i <= n; ++i) out_indptr[i] += out_indptr[i - 1];
  out_indices.resize(indices.size());
  EdgeOffset* const cursor = out_indptr.data() + 1;
  VertexId* const out = out_indices.data();
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = static_cast<VertexId>(r);
    const auto end = static_cast<std::size_t>(indptr[r + 1]);
    for (auto k = static_cast<std::size_t>(indptr[r]); k < end; ++k)
      out[cursor[indices[k]]++] = row;
  }
}

bool Csr::rows_sorted() const {
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const auto ns = neighbors(v);
    if (!std::is_sorted(ns.begin(), ns.end())) return false;
  }
  return true;
}

void Csr::validate() const {
  TLP_CHECK_MSG(!indptr_.empty(), "CSR indptr must have at least one entry");
  TLP_CHECK(indptr_.front() == 0);
  for (std::size_t i = 1; i < indptr_.size(); ++i)
    TLP_CHECK_MSG(indptr_[i] >= indptr_[i - 1], "indptr not monotone at " << i);
  TLP_CHECK(indptr_.back() == static_cast<EdgeOffset>(indices_.size()));
  const auto n = static_cast<VertexId>(indptr_.size() - 1);
  for (const VertexId u : indices_)
    TLP_CHECK_MSG(u >= 0 && u < n, "neighbor id " << u << " out of range");
}

std::string Csr::summary() const {
  std::ostringstream os;
  os << "|V|=" << human_count(static_cast<double>(num_vertices()))
     << ", |E|=" << human_count(static_cast<double>(num_edges()))
     << ", avg deg=" << fixed(avg_degree(), 1);
  return os.str();
}

}  // namespace tlp::graph
