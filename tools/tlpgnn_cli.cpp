// tlpgnn_cli — command-line front end for the library.
//
//   tlpgnn_cli run  [--system tlpgnn] [--model GCN] [--dataset PD]
//                   [--graph file.el] [--feature 32] [--heads 1]
//                   [--max-edges N] [--full] [--gpu-scale D] [--seed S]
//                   [--check] [--repeat R]
//                   [--memcheck] [--device-mem-gb G]
//                   [--oom-at N] [--fail-launch N]
//                   [--flip-at N] [--flip-bits B] [--flip-alloc I]
//   tlpgnn_cli gen  --out graph.el [--dataset RD | --vertices N --edges M
//                   --alpha A] [--max-edges N] [--format el|bin]
//   tlpgnn_cli info [--dataset PD | --graph file.el]
//
// `run` executes one graph convolution on any system and prints the
// Nsight-style profile; `gen` materializes dataset replicas to disk;
// `info` prints graph statistics. `--graph` also reads MatrixMarket (.mtx)
// files. An unknown flag is a usage error (exit 2).
//
// Fault-model flags (see DESIGN.md "Fault model & memory safety"):
//   --memcheck        run with guarded device memory (redzones, poison,
//                     use-after-free and write-race detection)
//   --device-mem-gb G cap simulated device memory at G GiB; OutOfMemory
//                     degrades the tlpgnn system to partitioned execution
//   --oom-at N        inject an allocation failure at the Nth device alloc
//   --fail-launch N   fail the Nth kernel launch
//   --flip-at N       flip --flip-bits random bits before the Nth launch,
//                     in allocation --flip-alloc (0-based; -1 = random)
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "models/reference.hpp"
#include "systems/system.hpp"

namespace {

using namespace tlp;

/// Every flag of run, gen and info, in one list: the commands share the
/// graph-source flags.
const std::vector<std::string> kFlags{
    // run
    "system", "model", "feature", "heads", "gpu-scale", "check", "repeat",
    "memcheck", "device-mem-gb", "oom-at", "fail-launch", "flip-at",
    "flip-bits", "flip-alloc",
    // graph source (run, gen, info)
    "dataset", "graph", "max-edges", "full", "seed",
    // gen
    "out", "vertices", "edges", "alpha", "format"};

graph::Csr load_graph(const Args& args) {
  const std::string path = args.get("graph", "");
  if (!path.empty()) {
    if (path.size() > 4 && path.substr(path.size() - 4) == ".mtx")
      return graph::read_matrix_market_file(path);
    if (path.size() > 4 && path.substr(path.size() - 4) == ".bin")
      return graph::read_binary_csr_file(path);
    return graph::read_edge_list_file(path);
  }
  const auto& ds = graph::dataset_by_abbr(args.get("dataset", "PD"));
  return graph::make_dataset(
      ds, {.max_edges = args.get_int_checked("max-edges", 500'000, 1),
           .full = args.get_bool("full", false),
           .seed = static_cast<std::uint64_t>(
               args.get_int_checked("seed", 42, 0))});
}

models::ModelKind parse_model(const Args& args) {
  const std::string name = args.get("model", "GCN");
  for (const auto k : models::kAllModels)
    if (name == models::model_name(k)) return k;
  TLP_CHECK_MSG(false, "unknown model '" << name << "' (GCN/GIN/Sage/GAT)");
  __builtin_unreachable();
}

sim::DeviceOptions device_options(const Args& args) {
  sim::DeviceOptions opts;
  if (args.get_bool("memcheck", false))
    opts.mem_mode = sim::MemoryMode::kGuarded;
  // Strict parsing: a mistyped fault flag must die with a message naming the
  // flag, not silently inject nothing (or fault allocation #0 forever).
  constexpr std::int64_t kSeqMax = 1'000'000'000'000;
  opts.faults.oom_at_alloc = args.get_int_checked("oom-at", 0, 0, kSeqMax);
  opts.faults.fail_launch = args.get_int_checked("fail-launch", 0, 0, kSeqMax);
  opts.faults.flip_at_launch = args.get_int_checked("flip-at", 0, 0, kSeqMax);
  opts.faults.flip_bits =
      static_cast<int>(args.get_int_checked("flip-bits", 1, 1, 1 << 20));
  opts.faults.flip_alloc = args.get_int_checked("flip-alloc", -1, -1, kSeqMax);
  opts.faults.seed =
      static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0, kSeqMax));
  return opts;
}

int cmd_run(const Args& args) {
  const graph::Csr g = load_graph(args);
  const models::ModelKind kind = parse_model(args);
  const std::int64_t f = args.get_int_checked("feature", 32, 1, 1 << 16);
  const int heads = static_cast<int>(args.get_int_checked("heads", 1, 1, 64));
  const std::string sysname = args.get("system", "tlpgnn");
  const int repeat =
      static_cast<int>(args.get_int_checked("repeat", 1, 1, 1'000'000));

  Rng rng(static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0)));
  const tensor::Tensor feat = tensor::Tensor::random(g.num_vertices(), f, rng);
  const models::ConvSpec spec = models::ConvSpec::make(kind, f, rng, heads);

  const int gpu_scale =
      static_cast<int>(args.get_int_checked("gpu-scale", 1, 1, 1000));
  const double mem_gb =
      args.get_double_checked("device-mem-gb", 0.0, 0.0, 1e6);
  const std::int64_t mem_bytes =
      mem_gb > 0 ? static_cast<std::int64_t>(mem_gb * (1LL << 30)) : 0;

  std::printf("%s | %s | %s | F=%lld%s\n", sysname.c_str(),
              models::model_name(kind), g.summary().c_str(),
              static_cast<long long>(f),
              heads > 1 ? (" | heads=" + std::to_string(heads)).c_str() : "");

  Timer wall;
  systems::RunResult r;
  if (sysname == "tlpgnn") {
    // The library entry point: capacity enforcement plus the partitioned
    // OutOfMemory fallback live behind Engine::conv.
    EngineOptions eopts;
    eopts.gpu = sim::GpuSpec::v100_scaled(gpu_scale);
    eopts.device_memory_bytes = mem_bytes;
    eopts.device = device_options(args);
    Engine engine(eopts);
    for (int i = 0; i < repeat; ++i) r = engine.conv(g, feat, spec);
  } else {
    auto sys = systems::make_system(sysname);
    sim::GpuSpec spec_gpu = sim::GpuSpec::v100_scaled(gpu_scale);
    if (mem_bytes > 0) spec_gpu.memory_bytes = mem_bytes;
    sim::Device dev(spec_gpu, device_options(args));
    for (int i = 0; i < repeat; ++i) r = sys->run(dev, g, feat, spec);
  }
  const double host_s = wall.seconds();

  TextTable t({"metric", "value"});
  t.add_row({"kernel launches", std::to_string(r.kernel_launches)});
  t.add_row({"simulated GPU time", fixed(r.gpu_time_ms, 3) + " ms"});
  t.add_row({"measured time (Table 5 metric)", fixed(r.measured_ms, 3) + " ms"});
  t.add_row({"runtime incl. framework", fixed(r.runtime_ms, 3) + " ms"});
  if (r.preprocessing_ms > 0)
    t.add_row({"preprocessing (host)", fixed(r.preprocessing_ms, 3) + " ms"});
  t.add_row({"load traffic", human_bytes(r.metrics.bytes_load)});
  t.add_row({"store traffic", human_bytes(r.metrics.bytes_store)});
  t.add_row({"atomic traffic", human_bytes(r.metrics.bytes_atomic)});
  t.add_row({"DRAM traffic", human_bytes(r.metrics.bytes_dram)});
  t.add_row({"sectors / request", fixed(r.metrics.sectors_per_request, 2)});
  t.add_row({"L1 hit rate", pct(r.metrics.l1_hit_rate)});
  t.add_row({"scoreboard stall (cyc/instr)",
             fixed(r.metrics.scoreboard_stall, 1)});
  t.add_row({"SM utilization", pct(r.metrics.sm_utilization)});
  t.add_row({"achieved occupancy", pct(r.metrics.achieved_occupancy)});
  t.add_row({"peak device memory",
             human_bytes(static_cast<double>(r.peak_device_bytes))});
  t.add_row({"host wall time", fixed(host_s * 1e3, 1) + " ms"});
  if (r.degradation.degraded) {
    t.add_row({"degraded (OutOfMemory fallback)",
               std::to_string(r.degradation.partitions) + " partitions, " +
                   std::to_string(r.degradation.retries) + " retries"});
  }
  t.print();
  if (r.degradation.degraded)
    std::printf("degradation cause: %s\n", r.degradation.reason.c_str());

  if (args.get_bool("check", false)) {
    const tensor::Tensor ref = models::reference_conv(g, feat, spec);
    const bool ok = tensor::allclose(r.output, ref, 1e-3, 1e-4);
    std::printf("reference check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}

int cmd_gen(const Args& args) {
  const std::string out = args.get("out", "");
  TLP_CHECK_MSG(!out.empty(), "gen requires --out <path>");
  // Checked before the (possibly large) graph is built or anything written.
  const std::string format = args.get_choice("format", "el", {"el", "bin"});
  graph::Csr g;
  if (args.has("dataset")) {
    g = load_graph(args);
  } else {
    // power_law needs n >= 2 vertices that fit graph::VertexId, and a
    // power-law exponent above 1.
    const auto n = static_cast<graph::VertexId>(args.get_int_checked(
        "vertices", 10'000, 2, std::numeric_limits<graph::VertexId>::max()));
    const std::int64_t m = args.get_int_checked("edges", 100'000, 0, 1LL << 48);
    const double alpha = args.get_double_checked("alpha", 2.3, 0.1, 64.0);
    TLP_CHECK_MSG(alpha > 1.0, "flag --alpha: value " << alpha
                                   << " must be greater than 1");
    Rng rng(static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0)));
    g = graph::power_law(n, m, alpha, rng);
  }
  if (format == "bin") {
    graph::write_binary_csr_file(out, g);
  } else {
    graph::write_edge_list_file(out, g);
  }
  std::printf("wrote %s: %s\n", out.c_str(), g.summary().c_str());
  return 0;
}

int cmd_info(const Args& args) {
  const graph::Csr g = load_graph(args);
  const graph::DegreeStats s = graph::degree_stats(g);
  std::printf("%s\n", g.summary().c_str());
  TextTable t({"degree stat", "value"});
  t.add_row({"min", std::to_string(s.min)});
  t.add_row({"median", fixed(s.median, 1)});
  t.add_row({"avg", fixed(s.avg, 2)});
  t.add_row({"p99", fixed(s.p99, 1)});
  t.add_row({"max", std::to_string(s.max)});
  t.add_row({"cv", fixed(s.cv, 3)});
  t.add_row({"gini", fixed(s.gini, 3)});
  t.print();
  std::printf("degree histogram (log2 buckets): ");
  for (const auto c : graph::degree_histogram(g))
    std::printf("%s ", human_count(static_cast<double>(c)).c_str());
  std::printf("\nhybrid heuristic would pick: %s assignment\n",
              (g.num_vertices() > 1'000'000 || g.avg_degree() > 50.0)
                  ? "software-pool"
                  : "hardware-dynamic");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tlp::Args args(argc, argv);
  if (const auto unknown = args.first_unknown(kFlags)) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unknown->c_str());
    return 2;
  }
  const std::string cmd =
      args.positional().empty() ? "run" : args.positional()[0];
  try {
    if (cmd == "run") return cmd_run(args);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "info") return cmd_info(args);
    std::fprintf(stderr, "unknown command '%s' (run|gen|info)\n", cmd.c_str());
    return 2;
  } catch (const tlp::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const tlp::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
