// Edge-list to CSR construction with the cleanup passes real loaders need:
// row ordering, duplicate removal, self-loop handling, and symmetrization.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace tlp::graph {

struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
};

struct BuildOptions {
  bool dedup = true;          ///< drop duplicate (src,dst) pairs
  bool drop_self_loops = false;
  bool add_self_loops = false;  ///< ensure (v,v) present for every v
  bool symmetrize = false;      ///< add the reverse of every edge
};

/// Builds the *pull-direction* CSR: row v holds sources of edges into v.
/// Edges are interpreted as src -> dst messages. Each row lists its sources
/// in increasing order, duplicates adjacent (the (dst, src) order of a
/// comparison sort), whatever the order of `edges`. Two counting passes,
/// by source and then by destination (see graph::transpose), make the cost
/// O(|V| + |E|) with no comparison sort.
Csr build_csr(VertexId num_vertices, std::vector<Edge> edges,
              const BuildOptions& opts = {});

/// Expands a CSR back to an edge list (dst-major order), useful for tests and
/// for edge-centric kernels that want a COO view.
std::vector<Edge> to_edge_list(const Csr& pull_csr);

}  // namespace tlp::graph
