#include "graph/datasets.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace tlp::graph {

namespace {

// Skew exponents: citation networks are moderately skewed (~2.4); social and
// co-purchase graphs have heavy hubs (~2.05–2.2); molecular/chemical graphs
// (DD, Ovcar-8h) are near-regular, modelled with a steep exponent.
constexpr std::array<DatasetSpec, 11> kDatasets{{
    {"Citeseer", "CS", 3'300, 9'200, 2.6, false, true},
    {"Cora", "CR", 2'700, 10'500, 2.6, false, true},
    {"Pubmed", "PD", 19'700, 88'600, 2.4, false, true},
    {"Ogbn-arxiv", "OA", 169'000, 1'100'000, 2.3, false, true},
    {"PPI", "PI", 56'000, 1'600'000, 2.2, false, true},
    {"DD", "DD", 334'000, 1'600'000, 3.5, false, true},
    {"Ovcar-8h", "OH", 1'800'000, 3'900'000, 3.5, false, true},
    {"Collab", "CL", 372'000, 24'900'000, 2.2, true, false},
    {"Ogbn-protein", "ON", 132'000, 79'000'000, 2.1, true, false},
    {"Reddit", "RD", 232'000, 114'000'000, 2.05, true, false},
    {"Ogbn-product", "OT", 2'400'000, 123'700'000, 2.2, true, false},
}};

}  // namespace

std::span<const DatasetSpec> all_datasets() { return kDatasets; }

std::vector<std::string> dataset_abbrs() {
  std::vector<std::string> abbrs;
  for (const auto& d : kDatasets) abbrs.emplace_back(d.abbr);
  return abbrs;
}

const DatasetSpec& dataset_by_abbr(const std::string& abbr) {
  for (const auto& d : kDatasets) {
    if (abbr == d.abbr) return d;
  }
  TLP_CHECK_MSG(false, "unknown dataset abbreviation '" << abbr << "'");
  __builtin_unreachable();
}

Csr make_dataset(const DatasetSpec& spec, const ReplicaOptions& opts) {
  std::int64_t v = spec.vertices;
  std::int64_t e = spec.edges;
  if (!opts.full && e > opts.max_edges) {
    const double ratio = static_cast<double>(opts.max_edges) /
                         static_cast<double>(e);
    v = std::max<std::int64_t>(64, static_cast<std::int64_t>(
                                       static_cast<double>(v) * ratio));
    e = opts.max_edges;
  }
  if (!opts.full && opts.min_vertices > 0) {
    v = std::min(spec.vertices, std::max(v, opts.min_vertices));
  }
  // Seed is mixed with the dataset name so each replica is an independent
  // stream but still reproducible from a single experiment seed.
  std::uint64_t mix = opts.seed;
  for (const char* p = spec.abbr; *p; ++p) mix = mix * 131 + static_cast<unsigned char>(*p);
  Rng rng(mix);
  // Real benchmark graphs have truncated tails (crawled or subsampled);
  // cap hubs at ~50x the average degree so no single vertex dominates.
  const auto avg = std::max<std::int64_t>(1, e / std::max<std::int64_t>(1, v));
  const EdgeOffset cap = 50 * avg;
  return power_law(static_cast<VertexId>(v), e, spec.alpha, rng, cap);
}

}  // namespace tlp::graph
