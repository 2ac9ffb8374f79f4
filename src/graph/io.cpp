#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/check.hpp"
#include "graph/builder.hpp"

namespace tlp::graph {

namespace {

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TLP_CHECK_MSG(in.good(), "cannot open '" << path << "' for reading");
  return in;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  TLP_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  return out;
}

constexpr std::uint64_t kBinaryMagic = 0x54'4c'50'43'53'52'31'00ULL;  // "TLPCSR1"

/// Largest vertex id any text loader accepts (VertexId is 32-bit signed; ids
/// at or above this would silently wrap when narrowed).
constexpr long long kMaxVertexId =
    static_cast<long long>(std::numeric_limits<VertexId>::max());

}  // namespace

Csr read_edge_list(std::istream& in, VertexId num_vertices) {
  std::vector<Edge> edges;
  VertexId max_id = -1;
  std::string line;
  long long lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    long long s = 0, d = 0;
    TLP_CHECK_MSG(static_cast<bool>(ls >> s >> d),
                  "malformed edge-list line " << lineno << ": '" << line
                                              << "'");
    TLP_CHECK_MSG(s >= 0 && d >= 0,
                  "negative vertex id on edge-list line " << lineno << ": '"
                                                          << line << "'");
    TLP_CHECK_MSG(s <= kMaxVertexId && d <= kMaxVertexId,
                  "vertex id overflows 32-bit id space on edge-list line "
                      << lineno << ": '" << line << "'");
    edges.push_back({static_cast<VertexId>(s), static_cast<VertexId>(d)});
    max_id = std::max({max_id, static_cast<VertexId>(s), static_cast<VertexId>(d)});
  }
  const VertexId n = num_vertices > 0 ? num_vertices : max_id + 1;
  TLP_CHECK_MSG(n > max_id, "num_vertices " << n
                                            << " too small for max edge id "
                                            << max_id);
  return build_csr(std::max<VertexId>(n, 1), std::move(edges),
                   {.dedup = false});
}

Csr read_edge_list_file(const std::string& path, VertexId num_vertices) {
  auto in = open_in(path);
  return read_edge_list(in, num_vertices);
}

void write_edge_list(std::ostream& out, const Csr& g) {
  out << "# tlpgnn edge list: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.neighbors(v)) out << u << ' ' << v << '\n';
  }
}

void write_edge_list_file(const std::string& path, const Csr& g) {
  auto out = open_out(path);
  write_edge_list(out, g);
}

Csr read_matrix_market(std::istream& in) {
  std::string line;
  long long lineno = 0;
  TLP_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                "empty MatrixMarket stream");
  ++lineno;
  TLP_CHECK_MSG(line.rfind("%%MatrixMarket", 0) == 0,
                "missing MatrixMarket banner on line 1: '" << line << "'");
  const bool symmetric = line.find("symmetric") != std::string::npos;
  // Skip remaining comments.
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream hs(line);
  long long rows = 0, cols = 0, nnz = 0;
  TLP_CHECK_MSG(static_cast<bool>(hs >> rows >> cols >> nnz),
                "malformed MatrixMarket size line " << lineno << ": '" << line
                                                    << "'");
  TLP_CHECK_MSG(rows >= 0 && cols >= 0 && nnz >= 0,
                "negative MatrixMarket dimensions on line "
                    << lineno << ": '" << line << "'");
  TLP_CHECK_MSG(rows == cols, "adjacency matrix must be square, got "
                                  << rows << " x " << cols << " on line "
                                  << lineno);
  TLP_CHECK_MSG(rows <= kMaxVertexId,
                "MatrixMarket dimension " << rows
                                          << " overflows 32-bit id space");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(symmetric ? 2 * nnz : nnz));
  for (long long i = 0; i < nnz; ++i) {
    TLP_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                  "truncated MatrixMarket body: expected " << nnz
                      << " entries, stream ended after " << i);
    ++lineno;
    std::istringstream ls(line);
    long long r = 0, c = 0;
    TLP_CHECK_MSG(static_cast<bool>(ls >> r >> c),
                  "malformed MatrixMarket entry on line " << lineno << ": '"
                                                          << line << "'");
    TLP_CHECK_MSG(r >= 1 && r <= rows && c >= 1 && c <= cols,
                  "MatrixMarket index (" << r << ", " << c
                      << ") out of range for " << rows << " x " << cols
                      << " matrix on line " << lineno);
    // Row r has an entry in column c: edge c-1 -> r-1 (A[r][c] != 0 means
    // r aggregates from c in the usual adjacency-times-features reading).
    edges.push_back({static_cast<VertexId>(c - 1), static_cast<VertexId>(r - 1)});
    if (symmetric && r != c)
      edges.push_back({static_cast<VertexId>(r - 1), static_cast<VertexId>(c - 1)});
  }
  return build_csr(static_cast<VertexId>(rows), std::move(edges),
                   {.dedup = false});
}

Csr read_matrix_market_file(const std::string& path) {
  auto in = open_in(path);
  return read_matrix_market(in);
}

void write_binary_csr(std::ostream& out, const Csr& g) {
  const std::uint64_t magic = kBinaryMagic;
  const std::int64_t n = g.num_vertices();
  const std::int64_t m = g.num_edges();
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(g.indptr().data()),
            static_cast<std::streamsize>(g.indptr().size_bytes()));
  out.write(reinterpret_cast<const char*>(g.indices().data()),
            static_cast<std::streamsize>(g.indices().size_bytes()));
  TLP_CHECK_MSG(out.good(), "binary CSR write failed");
}

void write_binary_csr_file(const std::string& path, const Csr& g) {
  auto out = open_out(path);
  write_binary_csr(out, g);
}

Csr read_binary_csr(std::istream& in) {
  std::uint64_t magic = 0;
  std::int64_t n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  TLP_CHECK_MSG(in.gcount() == sizeof(magic),
                "truncated binary CSR stream: header shorter than magic");
  TLP_CHECK_MSG(magic == kBinaryMagic,
                "not a tlpgnn binary CSR stream (bad magic)");
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  TLP_CHECK_MSG(in.gcount() == sizeof(n),
                "truncated binary CSR header: missing vertex count");
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  TLP_CHECK_MSG(in.gcount() == sizeof(m),
                "truncated binary CSR header: missing edge count");
  TLP_CHECK_MSG(n >= 0 && m >= 0, "corrupt binary CSR header: negative counts ("
                                      << n << " vertices, " << m << " edges)");
  TLP_CHECK_MSG(n <= kMaxVertexId,
                "binary CSR vertex count " << n
                                           << " overflows 32-bit id space");
  std::vector<EdgeOffset> indptr(static_cast<std::size_t>(n) + 1);
  std::vector<VertexId> indices(static_cast<std::size_t>(m));
  const auto indptr_bytes =
      static_cast<std::streamsize>(indptr.size() * sizeof(EdgeOffset));
  in.read(reinterpret_cast<char*>(indptr.data()), indptr_bytes);
  TLP_CHECK_MSG(in.gcount() == indptr_bytes,
                "truncated binary CSR body: got " << in.gcount()
                    << " of " << indptr_bytes << " indptr bytes");
  const auto indices_bytes =
      static_cast<std::streamsize>(indices.size() * sizeof(VertexId));
  in.read(reinterpret_cast<char*>(indices.data()), indices_bytes);
  TLP_CHECK_MSG(in.gcount() == indices_bytes,
                "truncated binary CSR body: got " << in.gcount()
                    << " of " << indices_bytes << " indices bytes");
  // Csr's constructor validates monotone indptr and in-range indices, turning
  // in-range-but-corrupt payloads into descriptive CheckErrors as well.
  return Csr(std::move(indptr), std::move(indices));
}

Csr read_binary_csr_file(const std::string& path) {
  auto in = open_in(path);
  return read_binary_csr(in);
}

Csr read_graph_file(const std::string& path) {
  const auto ends_with = [&](const char* ext) {
    const std::string_view e(ext);
    return path.size() > e.size() &&
           std::string_view(path).substr(path.size() - e.size()) == e;
  };
  if (ends_with(".mtx")) return read_matrix_market_file(path);
  if (ends_with(".bin")) return read_binary_csr_file(path);
  return read_edge_list_file(path);
}

}  // namespace tlp::graph
