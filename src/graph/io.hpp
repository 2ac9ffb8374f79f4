// Graph file I/O: plain edge lists and MatrixMarket coordinate files — the
// formats the paper's datasets ship in — plus a compact binary CSR format
// for fast reloads of large replicas.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr.hpp"

namespace tlp::graph {

/// Plain text edge list: one "src dst" pair per line; '#' or '%' lines are
/// comments. Vertex count is max id + 1 unless `num_vertices` > 0.
Csr read_edge_list(std::istream& in, VertexId num_vertices = 0);
Csr read_edge_list_file(const std::string& path, VertexId num_vertices = 0);

/// Writes "src dst" per edge, one line each, in CSR (destination-major)
/// order with a header comment.
void write_edge_list(std::ostream& out, const Csr& g);
void write_edge_list_file(const std::string& path, const Csr& g);

/// MatrixMarket coordinate format (1-based indices). `general` symmetry is
/// read as directed edges; `symmetric` entries are mirrored. Values, if
/// present, are ignored (pattern graphs).
Csr read_matrix_market(std::istream& in);
Csr read_matrix_market_file(const std::string& path);

/// Binary CSR: magic, counts, then raw indptr/indices. Not portable across
/// endianness — a cache format, not an interchange format.
void write_binary_csr(std::ostream& out, const Csr& g);
void write_binary_csr_file(const std::string& path, const Csr& g);
Csr read_binary_csr(std::istream& in);
Csr read_binary_csr_file(const std::string& path);

/// Reads `path` by its extension: `.mtx` as MatrixMarket, `.bin` as binary
/// CSR, anything else as an edge list.
Csr read_graph_file(const std::string& path);

}  // namespace tlp::graph
