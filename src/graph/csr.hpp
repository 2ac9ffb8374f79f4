// Compressed sparse row graph — the on-host representation every kernel
// strategy consumes. Convolution kernels aggregate over *incoming* edges
// (pull direction), so `indices[indptr[v]..indptr[v+1])` lists the in-
// neighbors of v unless stated otherwise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tlp::graph {

using VertexId = std::int32_t;
using EdgeOffset = std::int64_t;

class Csr {
 public:
  Csr() = default;

  /// Takes ownership of prebuilt arrays. indptr.size() == n+1, sorted rows.
  Csr(std::vector<EdgeOffset> indptr, std::vector<VertexId> indices);

  [[nodiscard]] VertexId num_vertices() const {
    return static_cast<VertexId>(indptr_.empty() ? 0 : indptr_.size() - 1);
  }
  [[nodiscard]] EdgeOffset num_edges() const {
    return indptr_.empty() ? 0 : indptr_.back();
  }
  [[nodiscard]] double avg_degree() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(num_edges()) / num_vertices();
  }

  [[nodiscard]] EdgeOffset degree(VertexId v) const {
    return indptr_[static_cast<std::size_t>(v) + 1] -
           indptr_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] EdgeOffset max_degree() const;

  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    return {indices_.data() + indptr_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(degree(v))};
  }

  [[nodiscard]] std::span<const EdgeOffset> indptr() const { return indptr_; }
  [[nodiscard]] std::span<const VertexId> indices() const { return indices_; }

  /// Graph with every edge direction flipped (in-CSR <-> out-CSR). Rows
  /// come out sorted, whatever the order of this graph's rows.
  [[nodiscard]] Csr reversed() const;

  /// True if each row's neighbor list is sorted ascending.
  [[nodiscard]] bool rows_sorted() const;

  /// Throws CheckError on malformed structure (bad indptr monotonicity or
  /// out-of-range indices).
  void validate() const;

  /// "|V|=…, |E|=…, avg deg=…" summary for logging.
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<EdgeOffset> indptr_;
  std::vector<VertexId> indices_;
};

/// The counting scatter behind Csr::reversed and build_csr. `indptr` and
/// `indices` hold n = indptr.size()-1 rows (none if `indptr` is empty), whose
/// entries lie in [0, n). On return, row c of (`out_indptr`, `out_indices`)
/// lists, in increasing order and once per occurrence, every row r that holds
/// c: rows are walked in increasing order and each entry is appended to its
/// target row, so the input rows may be in any order. O(n + |indices|).
void transpose(std::span<const EdgeOffset> indptr,
               std::span<const VertexId> indices,
               std::vector<EdgeOffset>& out_indptr,
               std::vector<VertexId>& out_indices);

}  // namespace tlp::graph
