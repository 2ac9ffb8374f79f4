// Partition-local subgraph extraction — the data layout a multi-GPU
// deployment (the paper's §1 future work) would ship to each device: owned
// vertices first, then the halo vertices whose features must be received
// from other devices before the convolution.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace tlp::graph {

struct LocalGraph {
  /// Local CSR: rows [0, num_owned) are the owned vertices' in-edges with
  /// neighbor ids in local space; halo vertices have empty rows.
  Csr csr;
  /// local id -> global id, size = csr.num_vertices().
  std::vector<VertexId> to_global;
  /// Owned vertices come first in the local id space.
  VertexId num_owned = 0;
};

/// Extracts partition `p`'s local graph from a global pull-CSR and a vertex
/// assignment (part[v] in [0, k)).
LocalGraph extract_partition(const Csr& g, std::span<const int> part, int p);

/// Induced subgraph over `keep`: kept vertices are relabeled densely in id
/// order; edges with a dropped endpoint disappear. Returns the local graph
/// and the local->global map.
LocalGraph induced_subgraph(const Csr& g, const std::vector<bool>& keep);

}  // namespace tlp::graph
