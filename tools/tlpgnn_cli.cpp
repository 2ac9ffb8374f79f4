// tlpgnn_cli — command-line front end for the library.
//
//   tlpgnn_cli run  [--system tlpgnn] [--model GCN] [--dataset PD]
//                   [--graph file.el] [--feature 32] [--heads 1]
//                   [--max-edges N] [--full] [--gpu-scale D] [--seed S]
//                   [--check] [--repeat R]
//                   [--memcheck] [--device-mem-gb G]
//                   [--oom-at N] [--fail-launch N]
//                   [--flip-at N] [--flip-bits B] [--flip-alloc I]
//   tlpgnn_cli gen  --out graph.el [--format el|bin] [--seed S]
//                   [--dataset RD [--max-edges N] [--full]
//                    | --vertices N --edges M --alpha A]
//   tlpgnn_cli info [--dataset PD [--max-edges N] [--full] [--seed S]
//                    | --graph file.el]
//
// `run` executes one graph convolution on any system and prints the
// Nsight-style profile; `gen` materializes dataset replicas to disk;
// `info` prints graph statistics. `--graph` also reads MatrixMarket (.mtx)
// and binary CSR (.bin) files. Each command reads only its own flags, and a
// flag it would not use is a usage error (exit 2): `--heads` is read only
// for GAT, `--flip-bits`/`--flip-alloc` only with `--flip-at`, and
// `--dataset`/`--max-edges`/`--full` only without `--graph`.
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
#include <functional>
#include <limits>
#include <string>

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

/// A graph named by the flags, built only when called: the flags are read,
/// and checked, before any work.
using GraphMaker = std::function<graph::Csr()>;

/// A dataset replica: --dataset, --max-edges, --full, --seed.
GraphMaker read_replica(const Args& args) {
  const graph::DatasetSpec& ds = graph::dataset_by_abbr(
      args.get_choice("dataset", "PD", graph::dataset_abbrs()));
  const graph::ReplicaOptions opts{
      .max_edges = args.get_int_checked("max-edges", 500'000, 1),
      .full = args.get_bool("full", false),
      .seed = static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0))};
  return [&ds, opts] { return graph::make_dataset(ds, opts); };
}

/// --graph FILE, or else a dataset replica.
GraphMaker read_graph_source(const Args& args) {
  const std::string path = args.get("graph", "");
  if (path.empty()) return read_replica(args);
  return [path] { return graph::read_graph_file(path); };
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
  if (opts.faults.flip_at_launch > 0) {
    opts.faults.flip_bits =
        static_cast<int>(args.get_int_checked("flip-bits", 1, 1, 1 << 20));
    opts.faults.flip_alloc =
        args.get_int_checked("flip-alloc", -1, -1, kSeqMax);
  }
  opts.faults.seed =
      static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0, kSeqMax));
  return opts;
}

int cmd_run(const Args& args) {
  const GraphMaker make_graph = read_graph_source(args);
  const models::ModelKind kind = models::model_from_name(
      args.get_choice("model", "GCN", models::model_names()));
  const std::int64_t f = args.get_int_checked("feature", 32, 1, 1 << 16);
  // Only GAT has heads (ConvSpec::make ignores the count otherwise).
  const int heads =
      kind == models::ModelKind::kGat
          ? static_cast<int>(args.get_int_checked("heads", 1, 1, 64))
          : 1;
  const std::string sysname =
      args.get_choice("system", "tlpgnn", systems::system_names());
  const int repeat =
      static_cast<int>(args.get_int_checked("repeat", 1, 1, 1'000'000));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0));
  const int gpu_scale =
      static_cast<int>(args.get_int_checked("gpu-scale", 1, 1, 1000));
  const double mem_gb =
      args.get_double_checked("device-mem-gb", 0.0, 0.0, 1e6);
  const std::int64_t mem_bytes =
      mem_gb > 0 ? static_cast<std::int64_t>(mem_gb * (1LL << 30)) : 0;
  const sim::DeviceOptions dev_opts = device_options(args);
  const bool check = args.get_bool("check", false);
  args.reject_unread();

  const graph::Csr g = make_graph();
  Rng rng(seed);
  const tensor::Tensor feat = tensor::Tensor::random(g.num_vertices(), f, rng);
  const models::ConvSpec spec = models::ConvSpec::make(kind, f, rng, heads);

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
    eopts.device = dev_opts;
    Engine engine(eopts);
    for (int i = 0; i < repeat; ++i) r = engine.conv(g, feat, spec);
  } else {
    auto sys = systems::make_system(sysname);
    sim::GpuSpec spec_gpu = sim::GpuSpec::v100_scaled(gpu_scale);
    if (mem_bytes > 0) spec_gpu.memory_bytes = mem_bytes;
    sim::Device dev(spec_gpu, dev_opts);
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

  if (check) {
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
  const std::string format = args.get_choice("format", "el", {"el", "bin"});
  GraphMaker make_graph;
  if (args.has("dataset")) {
    make_graph = read_replica(args);
  } else {
    // power_law needs n >= 2 vertices that fit graph::VertexId, and a
    // power-law exponent above 1.
    const auto n = static_cast<graph::VertexId>(args.get_int_checked(
        "vertices", 10'000, 2, std::numeric_limits<graph::VertexId>::max()));
    const std::int64_t m = args.get_int_checked("edges", 100'000, 0, 1LL << 48);
    const double alpha = args.get_double_checked("alpha", 2.3, 0.1, 64.0);
    TLP_CHECK_MSG(alpha > 1.0, "flag --alpha: value " << alpha
                                   << " must be greater than 1");
    const auto seed =
        static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0));
    make_graph = [=] {
      Rng rng(seed);
      return graph::power_law(n, m, alpha, rng);
    };
  }
  args.reject_unread();
  const graph::Csr g = make_graph();
  if (format == "bin") {
    graph::write_binary_csr_file(out, g);
  } else {
    graph::write_edge_list_file(out, g);
  }
  std::printf("wrote %s: %s\n", out.c_str(), g.summary().c_str());
  return 0;
}

int cmd_info(const Args& args) {
  const GraphMaker make_graph = read_graph_source(args);
  args.reject_unread();
  const graph::Csr g = make_graph();
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

int cli(const Args& args) {
  const std::string cmd = args.positional(0, "run");
  if (cmd == "run") return cmd_run(args);
  if (cmd == "gen") return cmd_gen(args);
  if (cmd == "info") return cmd_info(args);
  throw UsageError("unknown command '" + cmd + "' (run|gen|info)");
}

}  // namespace

int main(int argc, char** argv) { return tlp::run_main(argc, argv, &cli); }
