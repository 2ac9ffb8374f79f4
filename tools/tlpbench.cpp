// tlpbench: machine-readable benchmark pipeline driver (DESIGN.md §9).
//
//   tlpbench                         # run the full suite, print each bench's
//                                    # EXPERIMENTS.md section from its fresh
//                                    # records, write BENCH_<date>.json, check
//                                    # bench/baseline.json shape assertions
//   tlpbench --only table1,fig9      # subset by suite id
//   tlpbench --list                  # show the registered benches and
//                                    # the flags each one takes
//   tlpbench --seed 7 --max-edges 50000 --feature 64 --full
//                                    # shared flags every bench reads
//   tlpbench --only serve --requests 60
//                                    # a bench's own flag (see --list)
//   tlpbench --out results.json      # merged-report path
//   tlpbench --no-assert             # skip the baseline shape check
//   tlpbench --update-baseline       # refresh baseline.json's results snapshot
//                                    # (assertions are authored, never rewritten)
//   tlpbench --render-md EXPERIMENTS.md   # regenerate the experiments doc from
//                                         # the baseline snapshot (no benches run)
//   tlpbench --render-md             # ... to stdout
//   tlpbench --check-md EXPERIMENTS.md    # doc-drift gate: exit 1 unless the
//                                         # committed file is byte-identical
//
// Each mode reads only its own flags: the render, check and list modes read
// no run flags, a run reads --min-vertices and --requests only when a bench
// that takes them is selected, and --baseline only when it checks or
// updates one. Every flag is read, and every selected bench's config built,
// before the first bench runs.
//
// Exit codes: 0 ok, 1 shape-assertion failure / drift / IO error / bad
// numeric flag value, 2 usage (a flag the mode does not read, a positional
// argument, or a boolean flag given a non-boolean value).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "suite.hpp"
#include "common/cli.hpp"
#include "report/render_md.hpp"
#include "report/shapes.hpp"

namespace {

using namespace tlp;

constexpr const char* kBaselinePath = "bench/baseline.json";

void usage() {
  std::printf(
      "tlpbench — run the bench suite, merge machine-readable results, check\n"
      "shape assertions, and (re)generate EXPERIMENTS.md.\n\n"
      "run mode:      tlpbench [--only a,b] [--seed S] [--max-edges N]\n"
      "               [--full] [--feature F] [--out PATH] [--baseline PATH]\n"
      "               [--no-assert] [--update-baseline]\n"
      "render mode:   tlpbench --render-md [PATH] [--from REPORT.json]\n"
      "doc gate:      tlpbench --check-md EXPERIMENTS.md\n"
      "introspection: tlpbench --list\n"
      "bench flags:   a selected bench's own flags (--list shows them)\n");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw report::JsonError{"cannot read " + path};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return out.good();
}

/// `git rev-parse --short HEAD`, or "unknown" outside a checkout.
std::string git_head() {
  std::FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {0};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

struct Baseline {
  report::Report results;
  std::vector<report::ShapeAssertion> assertions;
  report::Json raw = report::Json::object();
};

Baseline load_baseline(const std::string& path) {
  Baseline b;
  b.raw = report::Json::parse(read_file(path));
  b.results = report::Report::from_json(b.raw.at("results"));
  b.assertions = report::assertions_from_json(b.raw);
  return b;
}

/// Prints the per-assertion verdicts; returns the number of failures.
int print_shape_outcomes(const std::vector<report::ShapeOutcome>& outcomes) {
  int failures = 0;
  std::printf("\n=== shape assertions ===\n");
  for (const report::ShapeOutcome& o : outcomes) {
    if (o.passed) {
      std::printf("  ok   %-42s %s\n", o.id.c_str(), o.detail.c_str());
    } else {
      ++failures;
      std::printf("  FAIL %-42s %s\n", o.id.c_str(), o.detail.c_str());
      if (!o.note.empty()) std::printf("       claim: %s\n", o.note.c_str());
    }
  }
  std::printf("%d/%zu assertions hold\n",
              static_cast<int>(outcomes.size()) - failures, outcomes.size());
  return failures;
}

/// Renders EXPERIMENTS.md content from a results snapshot + its assertions.
std::string render_from_baseline(const Baseline& b) {
  const auto outcomes = report::evaluate_all(b.assertions, b.results);
  return report::render_experiments_md(b.results, outcomes);
}

std::string default_out_name() {
  std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  char buf[32];
  std::strftime(buf, sizeof(buf), "BENCH_%Y-%m-%d.json", &tm_buf);
  return buf;
}

/// The benches --only names (all of them without it), in the order given.
std::vector<const bench::BenchDef*> select_benches(const Args& args) {
  if (!args.has("only")) return bench::all_benches();
  std::vector<const bench::BenchDef*> selected;
  for (const std::string& want : bench::split_csv(args.get("only", ""))) {
    const bench::BenchDef* found = nullptr;
    for (const bench::BenchDef* def : bench::all_benches()) {
      if (want == def->name) found = def;
    }
    if (found == nullptr) {
      throw UsageError("unknown bench \"" + want + "\" (see --list)");
    }
    selected.push_back(found);
  }
  if (selected.empty()) {
    // Mirror the shape evaluator's zero-match-is-failure rule: an empty
    // selection must fail loudly, not write an empty report that would pass
    // every (vacuously absent) assertion.
    throw UsageError("--only \"" + args.get("only", "") +
                     "\" matched no benchmarks; nothing to run (see --list)");
  }
  return selected;
}

/// One bench's config: the shared flags at the bench's defaults, plus the
/// flags only that bench takes.
bench::BenchConfig read_config(const Args& args, const bench::BenchDef& def) {
  bench::BenchConfig cfg;
  cfg.replica.max_edges = args.get_int_checked("max-edges", def.max_edges, 1);
  cfg.replica.full = args.get_bool("full", false);
  cfg.replica.seed =
      static_cast<std::uint64_t>(args.get_int_checked("seed", 42, 0));
  if (def.min_vertices > 0) {
    cfg.replica.min_vertices =
        args.get_int_checked("min-vertices", def.min_vertices, 0);
  }
  cfg.feature_size = args.get_int_checked("feature", def.feature, 1,
                                          kernels::kMaxFeature);
  cfg.seed = cfg.replica.seed;
  if (def.requests > 0) {
    cfg.requests = args.get_int_checked("requests", def.requests, 1, 100'000);
  }
  return cfg;
}

/// The effective config as recorded in the JSON and the rendered
/// EXPERIMENTS.md provenance.
report::Json config_json(const bench::BenchConfig& cfg) {
  report::Json config = report::Json::object();
  config.set("max_edges", cfg.replica.max_edges);
  config.set("full", cfg.replica.full);
  config.set("feature", cfg.feature_size);
  config.set("seed", static_cast<std::int64_t>(cfg.seed));
  return config;
}

int run_mode(const Args& args) {
  const std::vector<const bench::BenchDef*> selected = select_benches(args);
  std::vector<bench::BenchConfig> configs;
  for (const bench::BenchDef* def : selected) {
    configs.push_back(read_config(args, *def));
  }
  report::Report merged;
  merged.seed = configs.front().seed;
  const std::string out_path = args.get("out", default_out_name());
  const bool update_baseline = args.get_bool("update-baseline", false);
  const bool no_assert = args.get_bool("no-assert", false);
  const std::string baseline_path =
      update_baseline || !no_assert ? args.get("baseline", kBaselinePath) : "";
  args.reject_unread();
  merged.git = git_head();

  // Harness wall-clock per bench and process resources: simulator-throughput
  // telemetry for the CI bench-smoke summary. Kept out of the deterministic
  // `results` snapshot (and thus out of baseline.json and EXPERIMENTS.md) —
  // it lands in a separate top-level "harness" object of the merged report
  // only.
  std::vector<std::pair<std::string, double>> wall_ms;
  const auto suite_start = std::chrono::steady_clock::now();

  for (std::size_t i = 0; i < selected.size(); ++i) {
    const bench::BenchDef* def = selected[i];
    std::printf(">>> %s: %s\n", def->name, def->title);
    std::fflush(stdout);
    report::BenchResult result;
    result.name = def->name;
    result.title = def->title;
    result.config = config_json(configs[i]);
    bench::Reporter rep(result);
    const auto bench_start = std::chrono::steady_clock::now();
    const int rc = def->fn(configs[i], rep);
    wall_ms.emplace_back(
        def->name,
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - bench_start)
            .count());
    merged.benches.push_back(std::move(result));
    // Printed before the exit check: a failing bench's records show why
    // (e.g. the serve benches' mismatch counts).
    std::fputs(report::render_bench_md(merged, def->name).c_str(), stdout);
    if (rc != 0) {
      std::fflush(stdout);
      std::fprintf(stderr, "error: bench %s exited with %d\n", def->name, rc);
      return 1;
    }
  }
  const double total_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - suite_start)
          .count();
  // Whole-process host cost: peak resident set, and CPU time split into
  // user and kernel (system) mode, where page faults and mapping changes
  // of the device arenas land.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  const double user_s = seconds(usage.ru_utime);
  const double sys_s = seconds(usage.ru_stime);

  const auto print_harness_timing = [&] {
    int width = static_cast<int>(std::strlen("peak rss"));
    for (const auto& [name, ms] : wall_ms)
      width = std::max(width, static_cast<int>(name.size()));
    std::printf("\n=== harness timing (wall clock) ===\n");
    for (const auto& [name, ms] : wall_ms)
      std::printf("  %-*s %9.1f ms\n", width, name.c_str(), ms);
    std::printf("  %-*s %9.1f ms\n", width, "total", total_wall_ms);
    std::printf("  %-*s %9.1f s\n", width, "user", user_s);
    std::printf("  %-*s %9.1f s\n", width, "sys", sys_s);
    std::printf("  %-*s %9.1f MB\n", width, "peak rss", peak_rss_mb);
  };

  report::Json out_doc = merged.to_json();
  {
    report::Json per_bench = report::Json::object();
    for (const auto& [name, ms] : wall_ms) per_bench.set(name, ms);
    report::Json harness = report::Json::object();
    harness.set("wall_ms", std::move(per_bench));
    harness.set("total_wall_ms", total_wall_ms);
    harness.set("peak_rss_mb", peak_rss_mb);
    harness.set("user_s", user_s);
    harness.set("sys_s", sys_s);
    out_doc.set("harness", std::move(harness));
  }
  if (!write_file(out_path, out_doc.dump())) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu benches, schema %s)\n", out_path.c_str(),
              merged.benches.size(), merged.schema.c_str());

  if (update_baseline) {
    // Keep the authored assertions; replace only the results snapshot.
    report::Json doc = report::Json::object();
    doc.set("schema", report::kSchema);
    doc.set("results", merged.to_json());
    report::Json assertions = report::Json::array();
    try {
      const Baseline old = load_baseline(baseline_path);
      assertions = old.raw.at("assertions");
    } catch (const report::JsonError&) {
      // No existing baseline: start with an empty assertions array.
    }
    doc.set("assertions", assertions);
    if (!write_file(baseline_path, doc.dump())) {
      std::fprintf(stderr, "error: cannot write %s\n", baseline_path.c_str());
      return 1;
    }
    std::printf("updated %s (results snapshot at git %s)\n",
                baseline_path.c_str(), merged.git.c_str());
  }

  if (no_assert) {
    print_harness_timing();
    return 0;
  }

  Baseline baseline;
  try {
    baseline = load_baseline(baseline_path);
  } catch (const report::JsonError& e) {
    std::fprintf(stderr,
                 "error: cannot load baseline %s (%s); pass --no-assert to "
                 "skip the shape check\n",
                 baseline_path.c_str(), e.message.c_str());
    return 1;
  }

  // Evaluate against the *fresh* results: only assertions whose bench ran.
  std::vector<report::ShapeAssertion> applicable;
  for (const report::ShapeAssertion& a : baseline.assertions) {
    if (merged.find_bench(a.bench) != nullptr) applicable.push_back(a);
  }
  const auto outcomes = report::evaluate_all(applicable, merged);
  const int failures = print_shape_outcomes(outcomes);
  if (static_cast<std::size_t>(failures) < applicable.size() &&
      applicable.size() < baseline.assertions.size()) {
    std::printf("(%zu assertions skipped: bench not selected)\n",
                baseline.assertions.size() - applicable.size());
  }
  // After the assertions so the CI job-summary capture (everything from
  // "shape assertions" onward) includes the timings.
  print_harness_timing();
  return failures == 0 ? 0 : 1;
}

/// --render-md / --check-md: EXPERIMENTS.md from a results snapshot.
int render_mode(const Args& args) {
  const std::string baseline_path = args.get("baseline", kBaselinePath);
  const std::string from = args.get("from", "");
  const std::string check_path = args.get("check-md", "");
  const std::string target =
      check_path.empty() ? args.get("render-md", "true") : "";
  args.reject_unread();

  Baseline b;
  if (!from.empty()) {
    b.results = report::Report::from_json(report::Json::parse(read_file(from)));
    // Shape outcomes still come from the baseline's assertion set.
    try {
      b.assertions = load_baseline(baseline_path).assertions;
    } catch (const report::JsonError&) {
      // Render without assertions if no baseline is available.
    }
  } else {
    b = load_baseline(baseline_path);
  }
  const std::string md = render_from_baseline(b);

  if (!check_path.empty()) {
    const std::string committed = read_file(check_path);
    if (committed != md) {
      std::fprintf(stderr,
                   "doc drift: %s differs from the generator output "
                   "(%zu vs %zu bytes).\nRegenerate with: "
                   "tools/tlpbench --render-md %s\n",
                   check_path.c_str(), committed.size(), md.size(),
                   check_path.c_str());
      return 1;
    }
    std::printf("%s matches the generator output (%zu bytes)\n",
                check_path.c_str(), md.size());
    return 0;
  }

  if (target == "true" || target == "-") {
    std::fputs(md.c_str(), stdout);
  } else if (!write_file(target, md)) {
    std::fprintf(stderr, "error: cannot write %s\n", target.c_str());
    return 1;
  } else {
    std::printf("wrote %s (%zu bytes)\n", target.c_str(), md.size());
  }
  return 0;
}

int list_mode(const Args& args) {
  args.reject_unread();
  std::printf("registered benches (tlpbench --only <name,...>):\n");
  int width = 0;
  for (const bench::BenchDef* def : bench::all_benches())
    width = std::max(width, static_cast<int>(std::strlen(def->name)));
  for (const bench::BenchDef* def : bench::all_benches()) {
    std::printf("  %-*s %s", width, def->name, def->title);
    if (def->min_vertices > 0) std::printf("  [--min-vertices N]");
    if (def->requests > 0) std::printf("  [--requests N]");
    std::printf("\n");
  }
  std::printf("(micro_sim is standalone: google-benchmark, own JSON "
              "format)\n");
  return 0;
}

int tlpbench(const Args& args) {
  try {
    if (args.get_bool("help", false)) {
      usage();
      return 0;
    }
    if (args.get_bool("list", false)) return list_mode(args);
    if (args.has("render-md") || args.has("check-md")) {
      return render_mode(args);
    }
    return run_mode(args);
  } catch (const report::JsonError& e) {
    std::fprintf(stderr, "error: %s\n", e.message.c_str());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return tlp::run_main(argc, argv, &tlpbench);
}
