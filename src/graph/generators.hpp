// Synthetic graph generators.
//
// The paper evaluates on 11 real datasets; this repo replicates each with a
// generator calibrated to its vertex count, edge count, and degree skew (see
// graph/datasets.hpp and DESIGN.md §1). Generators here are also used
// directly by tests and microbenchmarks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/csr.hpp"

namespace tlp::graph {

/// G(n, m): m uniform random directed edges, no self loops. Duplicates are
/// kept (multigraph semantics, see generators.cpp), so m may exceed n(n-1).
Csr erdos_renyi(VertexId n, EdgeOffset m, Rng& rng);

/// Chung–Lu model with a power-law expected-degree sequence of exponent
/// `alpha` (typical social graphs: 2.0–2.5). Produces ~m edges total.
/// `max_degree` caps any vertex's in-degree (0 = uncapped) — real GNN
/// benchmark graphs (e.g. the GraphSAGE Reddit crawl) have bounded hubs,
/// roughly tens of times the average degree. Throws CheckError when the cap
/// leaves room for fewer than m edges (max_degree * n < m).
Csr power_law(VertexId n, EdgeOffset m, double alpha, Rng& rng,
              EdgeOffset max_degree = 0);

/// Recursive-matrix (R-MAT) generator; n is rounded up to a power of two.
/// Default (a,b,c) = (0.57, 0.19, 0.19) matches Graph500 skew.
Csr rmat(VertexId n, EdgeOffset m, Rng& rng, double a = 0.57, double b = 0.19,
         double c = 0.19);

/// k-regular ring lattice: v connects to its k nearest predecessors.
Csr regular_ring(VertexId n, int k);

/// Star: all of 1..n-1 point at vertex 0 (maximum imbalance fixture).
Csr star(VertexId n);

/// Directed path 0 -> 1 -> ... -> n-1.
Csr path(VertexId n);

/// 2-D grid with 4-neighborhood, rows*cols vertices, symmetric.
Csr grid2d(VertexId rows, VertexId cols);

/// Complete directed graph on n vertices (no self loops). Test-sized only.
Csr complete(VertexId n);

}  // namespace tlp::graph
