// Registry of the 11 graph benchmarks from Table 4 of the paper, replicated
// with calibrated synthetic generators (see DESIGN.md §1 for the
// substitution rationale). Each replica preserves the dataset's average
// degree and degree skew; by default the vertex count is scaled down so the
// whole evaluation fits a single-core simulator run, and `full = true`
// reproduces paper-scale vertex/edge counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace tlp::graph {

struct DatasetSpec {
  const char* name;   ///< full dataset name, e.g. "Reddit"
  const char* abbr;   ///< paper abbreviation, e.g. "RD"
  std::int64_t vertices;  ///< paper vertex count
  std::int64_t edges;     ///< paper edge count
  double alpha;  ///< power-law exponent of the replica's degree skew
  bool big4;     ///< one of CL/ON/RD/OT (used by Figures 11–12)
  /// GNNAdvisor crashed on the four largest graphs in the paper ("illegal
  /// CUDA memory access"); the replica system mirrors that support matrix.
  bool advisor_supported;

  [[nodiscard]] double avg_degree() const {
    return static_cast<double>(edges) / static_cast<double>(vertices);
  }
};

/// All 11 datasets in Table 4 order (sorted by edge count).
std::span<const DatasetSpec> all_datasets();

/// The abbreviations of all_datasets(), in order.
std::vector<std::string> dataset_abbrs();

/// Lookup by abbreviation ("CS", "RD", ...). Throws CheckError if unknown.
const DatasetSpec& dataset_by_abbr(const std::string& abbr);

struct ReplicaOptions {
  /// Cap on replica edge count; vertex count shrinks proportionally so the
  /// average degree is preserved. Ignored when full == true.
  std::int64_t max_edges = 1'000'000;
  /// Floor on the replica's vertex count. When it binds, the replica trades
  /// density for population — needed by strong-scaling experiments
  /// (Figure 11), which require many independent vertices per warp.
  std::int64_t min_vertices = 0;
  bool full = false;
  std::uint64_t seed = 42;
};

/// Builds the synthetic replica graph for a dataset.
Csr make_dataset(const DatasetSpec& spec, const ReplicaOptions& opts = {});

}  // namespace tlp::graph
