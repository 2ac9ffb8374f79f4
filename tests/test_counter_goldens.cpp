// Byte-exact regression test for the memory model: every kernel strategy x
// three graph shapes (a power-law social-graph replica, a uniform ring, and
// the star that maximizes imbalance and atomic contention), with the summed
// per-launch counters of each case formatted and compared with
// tests/goldens/mech_counters.txt byte for byte. The golden file was captured
// from the simulator before its warp engine was split into a functional
// layer and a timing layer, so any drift in data movement, coalescing, cache
// probes or latency charges fails here first. Doubles print with %.17g, so
// the round-trip through the file is exact.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fuzz/kernel_runners.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "models/model.hpp"
#include "sim/device.hpp"
#include "tensor/tensor.hpp"

namespace tlp::testing {
namespace {

// The workload constants the goldens were captured with.
constexpr std::int64_t kFeature = 64;
constexpr int kGatHeads = 2;
constexpr std::uint64_t kSeed = 0x7a11a6e5ULL;

struct GraphCase {
  std::string name;
  graph::Csr g;
};

/// The three shapes of the matrix: skewed, uniform, degenerate.
std::vector<GraphCase> golden_graphs() {
  std::vector<GraphCase> out;
  {
    Rng rng(kSeed);
    out.push_back({"power_law", graph::power_law(512, 4096, 2.1, rng)});
  }
  out.push_back({"ring", graph::regular_ring(512, 8)});
  out.push_back({"star", graph::star(256)});
  return out;
}

/// The convolution each strategy runs: GAT for the fused-GAT kernel, GCN
/// (norm-pair weights, self term — the richest access mix) for the rest.
models::ConvSpec golden_spec(const std::string& runner_name) {
  Rng rng(kSeed + 1);
  if (runner_name == "fused_gat") {
    return models::ConvSpec::make(models::ModelKind::kGat, kFeature, rng,
                                  kGatHeads);
  }
  return models::ConvSpec::make(models::ModelKind::kGcn, kFeature, rng);
}

/// Summed per-launch counters of one (runner, graph) run.
struct CounterSums {
  std::int64_t requests = 0;
  std::int64_t sectors = 0;
  std::int64_t bytes_load = 0;
  std::int64_t bytes_store = 0;
  std::int64_t bytes_atomic = 0;
  std::int64_t bytes_dram = 0;
  std::int64_t l1_accesses = 0;
  std::int64_t l1_hits = 0;
  std::int64_t l2_accesses = 0;
  std::int64_t l2_hits = 0;
  std::int64_t atomic_ops = 0;
  double issue_cycles = 0;
  double mem_stall_cycles = 0;
  double atomic_stall_cycles = 0;
  double elapsed_cycles = 0;
};

CounterSums run_case(const fuzz::KernelRunner& runner, const graph::Csr& g) {
  sim::Device dev(sim::GpuSpec::v100());
  Rng rng(kSeed + 2);
  const tensor::Tensor h =
      tensor::Tensor::random(g.num_vertices(), kFeature, rng);
  (void)runner.run(dev, g, h, golden_spec(runner.name), sim::LaunchConfig{});
  CounterSums s;
  for (const sim::KernelRecord& r : dev.profiler().records()) {
    s.requests += r.requests;
    s.sectors += r.sectors;
    s.bytes_load += r.bytes_load;
    s.bytes_store += r.bytes_store;
    s.bytes_atomic += r.bytes_atomic;
    s.bytes_dram += r.bytes_dram;
    s.l1_accesses += r.l1_accesses;
    s.l1_hits += r.l1_hits;
    s.l2_accesses += r.l2_accesses;
    s.l2_hits += r.l2_hits;
    s.atomic_ops += r.atomic_ops;
    s.issue_cycles += r.issue_cycles;
    s.mem_stall_cycles += r.mem_stall_cycles;
    s.atomic_stall_cycles += r.atomic_stall_cycles;
    s.elapsed_cycles += r.elapsed_cycles;
  }
  return s;
}

/// One golden record: "case <runner> <graph>" then one "key value" line per
/// counter.
std::string format_case(const std::string& runner, const std::string& graph,
                        const CounterSums& s) {
  char buf[256];
  std::string out = "case " + runner + " " + graph + "\n";
  const auto add_i = [&](const char* k, std::int64_t v) {
    std::snprintf(buf, sizeof(buf), "%s %" PRId64 "\n", k, v);
    out += buf;
  };
  const auto add_d = [&](const char* k, double v) {
    std::snprintf(buf, sizeof(buf), "%s %.17g\n", k, v);
    out += buf;
  };
  add_i("requests", s.requests);
  add_i("sectors", s.sectors);
  add_i("bytes_load", s.bytes_load);
  add_i("bytes_store", s.bytes_store);
  add_i("bytes_atomic", s.bytes_atomic);
  add_i("bytes_dram", s.bytes_dram);
  add_i("l1_accesses", s.l1_accesses);
  add_i("l1_hits", s.l1_hits);
  add_i("l2_accesses", s.l2_accesses);
  add_i("l2_hits", s.l2_hits);
  add_i("atomic_ops", s.atomic_ops);
  add_d("issue_cycles", s.issue_cycles);
  add_d("mem_stall_cycles", s.mem_stall_cycles);
  add_d("atomic_stall_cycles", s.atomic_stall_cycles);
  add_d("elapsed_cycles", s.elapsed_cycles);
  return out;
}

/// name ("<runner> <graph>") -> full formatted record, parsed from the
/// committed golden file.
std::map<std::string, std::string> load_goldens() {
  const std::string path =
      std::string(TLP_SOURCE_DIR) + "/tests/goldens/mech_counters.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::map<std::string, std::string> out;
  std::string line, key, body;
  while (std::getline(in, line)) {
    if (line.rfind("case ", 0) == 0) {
      if (!key.empty()) out[key] = body;
      key = line.substr(5);
      body = line + "\n";
    } else if (!key.empty()) {
      body += line + "\n";
    }
  }
  if (!key.empty()) out[key] = body;
  return out;
}

// Every counter of every (strategy, shape) case, doubles at full precision.
TEST(CounterGoldens, EveryStrategyMatchesGoldenFile) {
  const auto goldens = load_goldens();
  const auto graphs = golden_graphs();
  ASSERT_EQ(goldens.size(), fuzz::kernel_runners().size() * graphs.size());
  for (const auto& runner : fuzz::kernel_runners()) {
    for (const auto& gc : graphs) {
      const std::string key = runner.name + " " + gc.name;
      const auto it = goldens.find(key);
      ASSERT_NE(it, goldens.end()) << "no golden for case " << key;
      EXPECT_EQ(format_case(runner.name, gc.name, run_case(runner, gc.g)),
                it->second)
          << "counters drifted for case " << key;
    }
  }
}

}  // namespace
}  // namespace tlp::testing
