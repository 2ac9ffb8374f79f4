#include "report/render_md.hpp"

#include <algorithm>
#include <optional>

#include "common/format.hpp"

namespace tlp::report {

namespace {

// --- small lookup / formatting helpers ---------------------------------------

std::optional<double> val(const Report& rep, const std::string& bench,
                          const std::string& section,
                          const std::string& dataset,
                          const std::string& variant,
                          const std::string& metric) {
  return rep.value(bench, section, dataset, variant, metric);
}

/// fixed() of the value, or "-" when the record is absent (support matrix).
std::string cell(const Report& rep, const std::string& bench,
                 const std::string& section, const std::string& dataset,
                 const std::string& variant, const std::string& metric,
                 int digits) {
  const auto v = val(rep, bench, section, dataset, variant, metric);
  return v ? fixed(*v, digits) : std::string("-");
}

std::string ratio_x(double a, double b, int digits) {
  return fixed(a / b, digits) + "x";
}

/// Unique datasets of one bench section, in record (= dataset table) order.
std::vector<std::string> datasets_of(const BenchResult& b,
                                     const std::string& section) {
  std::vector<std::string> out;
  for (const Record& r : b.records) {
    if (r.section != section || r.dataset.empty()) continue;
    if (std::find(out.begin(), out.end(), r.dataset) == out.end())
      out.push_back(r.dataset);
  }
  return out;
}

void md_table(std::string& out, const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows) {
  auto emit_row = [&out](const std::vector<std::string>& cells) {
    out += "|";
    for (const std::string& c : cells) {
      out += " ";
      out += c;
      out += " |";
    }
    out += "\n";
  };
  emit_row(header);
  std::vector<std::string> rule(header.size(), "---");
  emit_row(rule);
  for (const auto& r : rows) emit_row(r);
  out += "\n";
}

std::string config_line(const BenchResult& b) {
  std::string out = "Config: ";
  out += "max-edges " +
         human_count(b.config.number_or("max_edges", 0)) +
         (b.config.bool_or("full", false) ? " (full scale)" : "") +
         ", F=" + fixed(b.config.number_or("feature", 0), 0) +
         ", seed " + fixed(b.config.number_or("seed", 42), 0) + ".";
  return out;
}

/// Section header (naming the tlpbench command that reruns the bench) +
/// config provenance; returns nullptr when the bench is missing from the
/// report (section is skipped with a note).
const BenchResult* begin_section(std::string& md, const Report& rep,
                                 const std::string& bench,
                                 const std::string& heading) {
  md += "## " + heading + " (`tlpbench --only " + bench + "`)\n\n";
  const BenchResult* b = rep.find_bench(bench);
  if (b == nullptr) {
    md += "*Not present in this report (run `tools/tlpbench` without "
          "`--only`, or rerun with this bench included).*\n\n";
    return nullptr;
  }
  md += config_line(*b) + "\n\n";
  return b;
}

// --- per-bench sections ------------------------------------------------------

void render_table1(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "table1", "Table 1 — atomic operations");
  if (b == nullptr) return;
  const std::string ds = datasets_of(*b, "").empty()
                             ? std::string("OH")
                             : datasets_of(*b, "").front();
  const std::vector<std::pair<std::string, std::string>> systems{
      {"push", "Push"},
      {"edge", "Edge"},
      {"gnnadvisor", "GnnA."},
      {"pull", "Pull"}};

  std::vector<std::vector<std::string>> rows;
  auto row = [&](const std::string& label, const std::string& metric,
                 auto format) {
    std::vector<std::string> cells{label};
    for (const auto& [variant, title] : systems) {
      const auto v = val(rep, "table1", "", ds, variant, metric);
      cells.push_back(v ? format(*v) : std::string("-"));
    }
    rows.push_back(std::move(cells));
  };
  row("Runtime (ms)", "measured_ms", [](double v) { return fixed(v, 3); });
  row("Mem atomic store traffic", "bytes_atomic",
      [](double v) { return human_bytes(v); });
  row("Stall long scoreboard (cyc/instr)", "scoreboard_stall",
      [](double v) { return fixed(v, 1); });
  row("SM utilization", "sm_utilization", [](double v) { return pct(v); });
  md_table(md, {"Metrics", "Push", "Edge", "GnnA.", "Pull"}, rows);

  const auto pull = val(rep, "table1", "", ds, "pull", "measured_ms");
  const auto push = val(rep, "table1", "", ds, "push", "measured_ms");
  const auto edge = val(rep, "table1", "", ds, "edge", "measured_ms");
  const auto gnna = val(rep, "table1", "", ds, "gnnadvisor", "measured_ms");
  if (pull && push && edge && gnna) {
    md += "Measured pull speedup: " + ratio_x(*push, *pull, 2) + " over push, " +
          ratio_x(*edge, *pull, 2) + " over edge, " + ratio_x(*gnna, *pull, 2) +
          " over GNNAdvisor. Paper (V100, full scale): 1.8x / 1.6x / 5.8x.\n\n";
  }
  md += "Shape: pull is atomic-free and fastest; every atomic strategy pays "
        "traffic + stalls. Deviation: in our model edge-centric (32-lane "
        "scattered atomics) is the worst and GNNAdvisor "
        "(register-accumulated groups, one atomic merge per group) the "
        "mildest atomic strategy, whereas the paper measures GNNAdvisor "
        "worst — its released implementation carries overheads beyond the "
        "atomic mechanism that we do not replicate.\n\n";
}

void render_table2(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "table2", "Table 2 — coalesced access");
  if (b == nullptr) return;
  const std::string ds = "PD";

  std::vector<std::vector<std::string>> rows;
  auto row = [&](const std::string& label, const std::string& metric,
                 auto format) {
    std::vector<std::string> cells{label};
    for (const std::string variant : {"one-thread", "half-warp"}) {
      const auto v = val(rep, "table2", "", ds, variant, metric);
      cells.push_back(v ? format(*v) : std::string("-"));
    }
    rows.push_back(std::move(cells));
  };
  row("Runtime (ms)", "runtime_ms", [](double v) { return fixed(v, 3); });
  row("Sector per request", "sectors_per_request",
      [](double v) { return fixed(v, 1); });
  row("L1 cache hit", "l1_hit_rate", [](double v) { return pct(v); });
  row("Long scoreboard (cyc/instr)", "scoreboard_stall",
      [](double v) { return fixed(v, 1); });
  md_table(md, {"Metrics", "One Thread", "Half Warp"}, rows);

  const auto one = val(rep, "table2", "", ds, "one-thread", "runtime_ms");
  const auto half = val(rep, "table2", "", ds, "half-warp", "runtime_ms");
  if (one && half) {
    md += "Measured half-warp speedup over one-thread: " +
          ratio_x(*one, *half, 1) +
          " (paper: 27.3x, sectors 9.2 vs 2.1).\n\n";
  }

  md += "Lanes-per-vertex sweep (extension ablation):\n\n";
  std::vector<std::vector<std::string>> sweep;
  for (const int lpv : {1, 2, 4, 8, 16, 32}) {
    const std::string variant = "lpv=" + std::to_string(lpv);
    sweep.push_back({std::to_string(lpv),
                     cell(rep, "table2", "", ds, variant, "runtime_ms", 3),
                     cell(rep, "table2", "", ds, variant,
                          "sectors_per_request", 1)});
  }
  md_table(md, {"lanes/vertex", "runtime (ms)", "sectors/req"}, sweep);

  md += "Shape: the one-thread mapping multiplies sectors/request and "
        "loses; the sweep improves monotonically from 1 to 32 lanes. "
        "Deviation: the magnitude is compressed because the simulator's L1 "
        "absorbs more of the scattered-access penalty than the V100 did.\n\n";
}

void render_table3(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "table3", "Table 3 — kernel launches");
  if (b == nullptr) return;
  const std::string ds = "RD";
  const std::vector<std::pair<std::string, std::string>> systems{
      {"dgl", "DGL"},
      {"three-kernel", "Three-Kernel"},
      {"one-kernel", "One-Kernel"}};

  std::vector<std::vector<std::string>> rows;
  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& [variant, title] : systems)
      cells.push_back(getter(variant));
    rows.push_back(std::move(cells));
  };
  auto metric_cell = [&](const std::string& variant, const std::string& metric,
                         auto format) -> std::string {
    const auto v = val(rep, "table3", "", ds, variant, metric);
    return v ? format(*v) : std::string("-");
  };
  row("GPU Kernel launch", [&](const std::string& v) {
    return metric_cell(v, "kernel_launches",
                       [](double x) { return fixed(x, 0); });
  });
  row("Runtime (ms)", [&](const std::string& v) {
    return metric_cell(v, "runtime_ms", [](double x) { return fixed(x, 2); });
  });
  row("GPU time (ms)", [&](const std::string& v) {
    return metric_cell(v, "gpu_time_ms", [](double x) { return fixed(x, 2); });
  });
  row("Runtime - GPU time (ms)", [&](const std::string& v) {
    const auto rt = val(rep, "table3", "", ds, v, "runtime_ms");
    const auto gt = val(rep, "table3", "", ds, v, "gpu_time_ms");
    return rt && gt ? fixed(*rt - *gt, 2) : std::string("-");
  });
  row("Global mem usage", [&](const std::string& v) {
    return metric_cell(v, "peak_device_bytes",
                       [](double x) { return human_bytes(x); });
  });
  row("Global mem traffic", [&](const std::string& v) {
    const auto ld = val(rep, "table3", "", ds, v, "bytes_load");
    const auto st = val(rep, "table3", "", ds, v, "bytes_store");
    const auto at = val(rep, "table3", "", ds, v, "bytes_atomic");
    return ld && st && at ? human_bytes(*ld + *st + *at) : std::string("-");
  });
  row("Stall long scoreboard (cyc/instr)", [&](const std::string& v) {
    return metric_cell(v, "scoreboard_stall",
                       [](double x) { return fixed(x, 1); });
  });
  row("Average SM utilization", [&](const std::string& v) {
    return metric_cell(v, "sm_utilization", [](double x) { return pct(x); });
  });
  md_table(md, {"Metrics", "DGL", "Three-Kernel", "One-Kernel"}, rows);

  const auto dgl = val(rep, "table3", "", ds, "dgl", "runtime_ms");
  const auto three = val(rep, "table3", "", ds, "three-kernel", "runtime_ms");
  const auto one = val(rep, "table3", "", ds, "one-kernel", "runtime_ms");
  if (dgl && three && one) {
    md += "Measured one-kernel speedup: " + ratio_x(*dgl, *one, 1) +
          " over DGL, " + ratio_x(*three, *one, 1) +
          " over three-kernel (paper: 7.5x / 4.6x).\n\n";
  }
  md += "Shape: fusion removes launches, framework overhead, the "
        "materialized E×F messages (memory usage + traffic), and wins; the "
        "fused kernel has by far the highest SM utilization. Our fused "
        "kernel's advantage overshoots (≈2x) because the replica pipelines "
        "are leaner than production DGL.\n\n";
}

void render_table5(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "table5", "Table 5 — main comparison");
  if (b == nullptr) return;
  md += "'-' mirrors the paper's support matrix (GNNAdvisor: GCN/GIN only, "
        "crashes on the four largest graphs).\n\n";

  for (const std::string model : {"GCN", "GIN", "Sage", "GAT"}) {
    const std::vector<std::string> datasets = datasets_of(*b, model);
    if (datasets.empty()) continue;
    md += "**" + model + "**\n\n";
    std::vector<std::vector<std::string>> rows;
    for (const std::string& ds : datasets) {
      std::vector<std::string> cells{ds};
      std::optional<double> best;
      for (const std::string sys : {"dgl", "gnnadvisor", "featgraph"}) {
        const auto v = val(rep, "table5", model, ds, sys, "measured_ms");
        if (v && (!best || *v < *best)) best = *v;
        cells.push_back(v ? fixed(*v, 3) : std::string("-"));
      }
      const auto tlpgnn = val(rep, "table5", model, ds, "tlpgnn",
                              "measured_ms");
      cells.push_back(tlpgnn ? fixed(*tlpgnn, 3) : std::string("-"));
      cells.push_back(tlpgnn && best ? ratio_x(*best, *tlpgnn, 1)
                                     : std::string("-"));
      rows.push_back(std::move(cells));
    }
    md_table(md, {"Data", "DGL", "GNNA.", "FeatG.", "TLPGNN", "Speedup"},
             rows);
  }

  md += "Average TLPGNN speedup (geomean over all runs):\n\n";
  std::vector<std::vector<std::string>> avg;
  const std::vector<std::pair<std::string, std::string>> baselines{
      {"dgl", "5.6x"}, {"gnnadvisor", "7.7x"}, {"featgraph", "3.3x"}};
  for (const auto& [sys, paper] : baselines) {
    avg.push_back({"vs " + sys, paper,
                   cell(rep, "table5", "summary", "", sys, "geomean_speedup",
                        2) + "x"});
  }
  md_table(md, {"", "paper (arithmetic)", "measured (geomean)"}, avg);

  md += "Shape: TLPGNN wins on average against all three; DGL is uniformly "
        "slow on small graphs (launch + framework overhead); FeatGraph is "
        "the closest competitor, exactly as in the paper (it also beat DGL "
        "in most of the paper's cells). Honest deviations: (a) FeatGraph's "
        "margin to TLPGNN is narrower than the paper's — its TVM penalty "
        "(1-warp blocks + 8-lane tiles) costs less in our machine model "
        "than on silicon; (b) on the near-regular molecular graphs (DD, OH) "
        "and a few Sage cells FeatGraph's 4-vertices-per-warp mapping "
        "genuinely wins, where the paper still has TLPGNN ahead ~1.5x; the "
        "paper's OA row, where DGL beats TLPGNN, reproduces in spirit as "
        "our weakest GCN/GIN rows.\n\n";
}

void render_fig8(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "fig8", "Figure 8 — GNNAdvisor atomic writes");
  if (b == nullptr) return;
  std::vector<std::vector<std::string>> rows;
  for (const std::string& ds : datasets_of(*b, "")) {
    auto bytes = [&](const std::string& variant) -> std::string {
      const auto v = val(rep, "fig8", "", ds, variant, "bytes_atomic");
      return v ? human_bytes(*v) : std::string("-");
    };
    rows.push_back({ds, bytes("gnnadvisor-gcn"), bytes("gnnadvisor-gin"),
                    bytes("tlpgnn")});
  }
  md_table(md, {"Data", "GCN atomic", "GIN atomic", "TLPGNN atomic"}, rows);
  md += "Shape: atomic-write traffic grows with edge count across the seven "
        "supported datasets (paper: MBs to 100s of MBs at full scale); "
        "TLPGNN's column is exactly zero.\n\n";
}

void render_fig9(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "fig9", "Figure 9 — achieved occupancy");
  if (b == nullptr) return;
  std::vector<std::vector<std::string>> rows;
  for (const std::string& ds : datasets_of(*b, "")) {
    auto occ = [&](const std::string& variant) -> std::string {
      const auto v = val(rep, "fig9", "", ds, variant, "achieved_occupancy");
      return v ? pct(*v) : std::string("-");
    };
    rows.push_back({ds, occ("featgraph"), occ("tlpgnn")});
  }
  {
    auto avg = [&](const std::string& variant) -> std::string {
      const auto v = val(rep, "fig9", "summary", "", variant,
                         "mean_achieved_occupancy");
      return v ? pct(*v) : std::string("-");
    };
    rows.push_back({"**Average**", avg("featgraph"), avg("tlpgnn")});
  }
  md_table(md, {"Data", "FeatGraph", "TLPGNN"}, rows);
  md += "Paper averages: FeatGraph 41.2%, TLPGNN 68.2%.\n\n";
  md += "Shape: TLPGNN above FeatGraph on every dataset (mechanism: "
        "FeatGraph's 1-warp blocks cap resident warps at the 32-block SM "
        "slot limit). Absolute values are lower because small replicas "
        "cannot fill 5120 warp slots and the slot model idles during "
        "dispatch.\n\n";
}

void render_fig10(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "fig10", "Figure 10 — technique ablation");
  if (b == nullptr) return;
  md += "Speedup over the edge-centric baseline; each column adds one "
        "technique.\n\n";
  for (const std::string model : {"GCN", "GIN", "Sage", "GAT"}) {
    const std::vector<std::string> datasets = datasets_of(*b, model);
    if (datasets.empty()) continue;
    const bool is_gat = model == "GAT";
    std::vector<std::string> stages{"tlp", "+hybrid", "+cache"};
    if (is_gat) stages.push_back("+fusion");
    md += "**" + model + "**\n\n";
    std::vector<std::string> header{"Data", "TLP", "+Hybrid", "+Cache"};
    if (is_gat) header.push_back("+Fusion");
    std::vector<std::vector<std::string>> rows;
    for (const std::string& ds : datasets) {
      std::vector<std::string> cells{ds};
      for (const std::string& st : stages) {
        const auto v = val(rep, "fig10", model, ds, st, "speedup");
        cells.push_back(v ? fixed(*v, 2) + "x" : std::string("-"));
      }
      rows.push_back(std::move(cells));
    }
    std::vector<std::string> avg{"**geomean**"};
    for (const std::string& st : stages) {
      const auto v = val(rep, "fig10", model, "", st, "geomean_speedup");
      avg.push_back(v ? fixed(*v, 2) + "x" : std::string("-"));
    }
    rows.push_back(std::move(avg));
    md_table(md, header, rows);
  }
  md += "Paper cumulative averages: GCN 12.9x, GIN 12.1x, Sage 11.3x, GAT "
        "8.6x over the edge-centric baseline.\n\n";
  md += "Shape: every stage contributes; register caching helps most on "
        "high-degree graphs, matching the paper's observation; fusion is "
        "the dominant GAT technique. Honest deviation: the +Hybrid stage is "
        "nearly flat here, because at replica scale the static baseline "
        "already degenerates to ~1 vertex per warp (V ≈ number of warps), "
        "leaving no imbalance for dynamic assignment to fix; at larger "
        "`--max-edges` the stage turns positive but stays far from the "
        "paper's ~2x.\n\n";
}

void render_fig11(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "fig11", "Figure 11 — thread-count scaling");
  if (b == nullptr) return;
  md += "Speedup over a single block (512 threads/block), four largest "
        "replicas (strong-scaling replicas keep a 50K-vertex population; "
        "see DESIGN.md).\n\n";
  const std::vector<int> blocks{1, 2, 4, 8, 16, 32, 64, 128};
  for (const std::string model : {"GCN", "GIN", "Sage", "GAT"}) {
    const std::vector<std::string> datasets = datasets_of(*b, model);
    if (datasets.empty()) continue;
    md += "**" + model + "**\n\n";
    std::vector<std::string> header{"Data"};
    for (const int n : blocks) header.push_back(std::to_string(n));
    std::vector<std::vector<std::string>> rows;
    for (const std::string& ds : datasets) {
      std::vector<std::string> cells{ds};
      for (const int n : blocks) {
        const auto v = val(rep, "fig11", model, ds,
                           "blocks=" + std::to_string(n), "speedup");
        cells.push_back(v ? fixed(*v, 1) + "x" : std::string("-"));
      }
      rows.push_back(std::move(cells));
    }
    md_table(md, header, rows);
  }
  md += "Paper averages at 128 blocks: GCN 67.5x, GIN 62.5x, Sage 67.2x, "
        "GAT 45.3x.\n\n";
  md += "Shape: near-linear scaling at low block counts that saturates "
        "toward 128 blocks; GAT scales slightly worse than the others, as "
        "in the paper. The ceiling is lower because the replicas carry ~25x "
        "fewer vertices than the real graphs, so the tail wave and "
        "bandwidth floor arrive earlier.\n\n";
}

void render_fig12(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "fig12", "Figure 12 — feature-size scaling");
  if (b == nullptr) return;
  md += "Runtime normalized to feature size 16, four largest replicas.\n\n";
  const std::vector<int> sizes{16, 32, 64, 128, 256, 512};
  for (const std::string model : {"GCN", "GIN", "Sage", "GAT"}) {
    const std::vector<std::string> datasets = datasets_of(*b, model);
    if (datasets.empty()) continue;
    md += "**" + model + "**\n\n";
    std::vector<std::string> header{"Data"};
    for (const int f : sizes) header.push_back(std::to_string(f));
    std::vector<std::vector<std::string>> rows;
    for (const std::string& ds : datasets) {
      std::vector<std::string> cells{ds};
      for (const int f : sizes) {
        const auto v = val(rep, "fig12", model, ds, "f=" + std::to_string(f),
                           "normalized_runtime");
        cells.push_back(v ? fixed(*v, 1) + "x" : std::string("-"));
      }
      rows.push_back(std::move(cells));
    }
    md_table(md, header, rows);
  }
  md += "Paper at F=512 (32x the data of F=16): GCN 41.6x, GIN 40.4x, Sage "
        "36.7x, GAT 27.3x slower — i.e. roughly linear; F=16 runs ~1.4x "
        "faster than F=32 despite half the warp being idle.\n\n";
  md += "Shape: runtime grows sub-linearly at small F (the paper's \"half "
        "the warp idle yet barely slower\" observation) and roughly "
        "linearly beyond F=64. Deviation: the densest replicas stay flatter "
        "because at replica scale their per-edge scalar bookkeeping, which "
        "is F-independent, still dominates at small F.\n\n";
}

void render_tuning(std::string& md, const Report& rep) {
  const BenchResult* b =
      begin_section(md, rep, "tuning", "Extension — tuning ablations");
  if (b == nullptr) return;
  md += "Design-choice sweeps beyond the paper's figures (times in ms).\n\n";

  md += "**(a) warps per block** — the §5 balance-vs-dispatch knob:\n\n";
  {
    std::vector<std::vector<std::string>> rows;
    for (const std::string& ds : datasets_of(*b, "warps_per_block")) {
      std::vector<std::string> cells{ds};
      for (const int wpb : {1, 2, 4, 8, 16, 32}) {
        cells.push_back(cell(rep, "tuning", "warps_per_block", ds,
                             "wpb=" + std::to_string(wpb), "gpu_time_ms", 3));
      }
      rows.push_back(std::move(cells));
    }
    md_table(md, {"Data", "1", "2", "4", "8", "16", "32"}, rows);
  }

  md += "**(b) software-pool grab size** (Algorithm 1's `step`):\n\n";
  {
    std::vector<std::vector<std::string>> rows;
    for (const std::string& ds : datasets_of(*b, "pool_step")) {
      std::vector<std::string> cells{ds};
      for (const int step : {1, 4, 16, 64, 256}) {
        cells.push_back(cell(rep, "tuning", "pool_step", ds,
                             "step=" + std::to_string(step), "gpu_time_ms",
                             3));
      }
      rows.push_back(std::move(cells));
    }
    md_table(md, {"Data", "1", "4", "16", "64", "256"}, rows);
  }

  md += "**(c) machine sweep** — the same TLPGNN kernel across GPU specs "
        "(F=256 to reach the bandwidth-bound regime):\n\n";
  {
    std::vector<std::vector<std::string>> rows;
    for (const std::string& ds : datasets_of(*b, "machine")) {
      rows.push_back(
          {ds,
           cell(rep, "tuning", "machine", ds, "v100", "gpu_time_ms", 3),
           cell(rep, "tuning", "machine", ds, "half-bandwidth", "gpu_time_ms",
                3),
           cell(rep, "tuning", "machine", ds, "a100-like", "gpu_time_ms",
                3)});
    }
    md_table(md, {"Data", "V100", "half-bandwidth", "A100-like"}, rows);
  }
  md += "Shape: large 32-warp blocks pay an imbalance penalty on the sparse "
        "replicas (the paper's \"more warps per block, more imbalance\" "
        "claim); fine pool grabs win on dense replicas, coarse grabs on "
        "sparse ones; the F=256 runs are bandwidth-bound on OA "
        "(half-bandwidth hurts, A100-like helps) and latency-bound "
        "(machine-insensitive) on the small dense replicas.\n\n";
}

}  // namespace

std::string render_experiments_md(const Report& rep,
                                  const std::vector<ShapeOutcome>& shapes) {
  std::string md;
  md += "# EXPERIMENTS — paper vs. measured\n\n";
  md += "> **Generated file — do not edit.** Produced by "
        "`tools/tlpbench --render-md` from the results snapshot in "
        "`bench/baseline.json`; CI fails when this file drifts from the "
        "generator output. To refresh after a model change: "
        "`./build/tools/tlpbench --update-baseline && "
        "./build/tools/tlpbench --render-md EXPERIMENTS.md` "
        "(see DESIGN.md §9).\n\n";
  md += "Reproduction target: the *shape* of each result — which system "
        "wins, by roughly what factor, and which mechanism the profile "
        "attributes it to — not absolute milliseconds (the substrate is a "
        "calibrated simulator, not the authors' V100; see DESIGN.md §1/§4). "
        "Default runs use scaled-down dataset replicas on a proportionally "
        "scaled-down GPU; every number below regenerates with "
        "`tools/tlpbench`, and each section's heading names the "
        "`--only` run that regenerates just that section (`--full` "
        "switches to paper-scale replicas).\n\n";

  // --- shape-assertion summary ----------------------------------------------
  md += "## Shape summary\n\n";
  if (shapes.empty()) {
    md += "*No baseline assertions evaluated.*\n\n";
  } else {
    int passed = 0;
    std::vector<std::vector<std::string>> rows;
    for (const ShapeOutcome& s : shapes) {
      passed += s.passed ? 1 : 0;
      rows.push_back({s.passed ? "✓" : "**✗**", "`" + s.id + "`",
                      s.note.empty() ? s.detail : s.note});
    }
    md_table(md, {"", "assertion", "claim"}, rows);
    md += fixed(passed, 0) + "/" + fixed(shapes.size(), 0) +
          " shape assertions hold (see `bench/baseline.json` for the "
          "machine-readable form; `tools/tlpbench` re-evaluates them on "
          "every run).\n\n";
  }

  render_table1(md, rep);
  render_table2(md, rep);
  render_table3(md, rep);
  render_table5(md, rep);
  render_fig8(md, rep);
  render_fig9(md, rep);
  render_fig10(md, rep);
  render_fig11(md, rep);
  render_fig12(md, rep);

  md += "## §3 micro mechanisms (`bench/micro_sim`)\n\n";
  md += "google-benchmark suite over the simulator substrate itself: "
        "coalesced vs scattered loads (4 vs ~30 sectors/request), atomic "
        "conflict serialization cost vs lane spread, cache hit/thrash "
        "regimes, end-to-end simulated-kernel throughput, generator and "
        "CSR-reverse throughput. Not part of the tlpbench suite — it "
        "measures host wall-clock, which is machine-dependent; use "
        "`--benchmark_format=json` for machine-readable output.\n\n";

  render_tuning(md, rep);

  md += "---\n\n";
  md += "*Provenance: schema `" + rep.schema + "` · seed " +
        fixed(static_cast<double>(rep.seed), 0) + " · results generated at "
        "git `" + rep.git + "` · rendered by `tools/tlpbench --render-md`.*\n";
  return md;
}

}  // namespace tlp::report
