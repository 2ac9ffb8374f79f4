// tlpbench: machine-readable benchmark pipeline driver (DESIGN.md §9).
//
//   tlpbench                         # run the full suite, write BENCH_<date>.json,
//                                    # check bench/baseline.json shape assertions
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
// Exit codes: 0 ok, 1 shape-assertion failure / drift / IO error / bad
// flag value, 2 usage.
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
#include "common/check.hpp"
#include "report/render_md.hpp"
#include "report/shapes.hpp"

namespace {

using namespace tlp;

const std::vector<std::string> kFlags{
    "only", "list", "seed",     "max-edges",       "full",
    "feature", "out",  "baseline", "no-assert",       "update-baseline",
    "render-md", "from", "check-md", "help"};

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "tlpbench — run the bench suite, merge machine-readable results, check\n"
      "shape assertions, and (re)generate EXPERIMENTS.md.\n\n"
      "run mode:      tlpbench [--only a,b] [--seed S] [--max-edges N]\n"
      "               [--full] [--feature F] [--out PATH] [--baseline PATH]\n"
      "               [--no-assert] [--update-baseline]\n"
      "render mode:   tlpbench --render-md [PATH] [--from REPORT.json]\n"
      "doc gate:      tlpbench --check-md EXPERIMENTS.md\n"
      "introspection: tlpbench --list\n"
      "bench flags:   a bench's own flags (--list shows them) go to it\n");
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

int run_mode(const Args& args) {
  // Select benches.
  std::vector<const bench::BenchDef*> selected;
  if (args.has("only")) {
    for (const std::string& want : bench::split_csv(args.get("only", ""))) {
      const bench::BenchDef* found = nullptr;
      for (const bench::BenchDef* def : bench::all_benches()) {
        if (want == def->name) found = def;
      }
      if (found == nullptr) {
        std::fprintf(stderr, "error: unknown bench \"%s\" (see --list)\n",
                     want.c_str());
        return 2;
      }
      selected.push_back(found);
    }
  } else {
    selected = bench::all_benches();
  }
  if (selected.empty()) {
    // Mirror the shape evaluator's zero-match-is-failure rule: an empty
    // selection must fail loudly, not write an empty report that would pass
    // every (vacuously absent) assertion.
    std::fprintf(stderr,
                 "error: --only \"%s\" matched no benchmarks; nothing to run "
                 "(see --list)\n",
                 args.get("only", "").c_str());
    return 2;
  }

  report::Report merged;
  merged.seed = static_cast<std::uint64_t>(
      args.get_int_checked("seed", 42, 0));
  merged.git = git_head();

  // Harness wall-clock per bench and process resources: simulator-throughput
  // telemetry for the CI bench-smoke summary. Kept out of the deterministic
  // `results` snapshot (and thus out of baseline.json and EXPERIMENTS.md) —
  // it lands in a separate top-level "harness" object of the merged report
  // only.
  std::vector<std::pair<std::string, double>> wall_ms;
  const auto suite_start = std::chrono::steady_clock::now();

  for (const bench::BenchDef* def : selected) {
    std::printf(">>> %s: %s\n", def->name, def->title);
    std::fflush(stdout);
    report::BenchResult result;
    result.name = def->name;
    result.title = def->title;
    bench::Reporter rep(result);
    const auto bench_start = std::chrono::steady_clock::now();
    const int rc = def->fn(args, rep);
    wall_ms.emplace_back(
        def->name,
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - bench_start)
            .count());
    if (rc != 0) {
      std::fprintf(stderr, "error: bench %s exited with %d\n", def->name, rc);
      return 1;
    }
    merged.benches.push_back(std::move(result));
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
    std::printf("\n=== harness timing (wall clock) ===\n");
    for (const auto& [name, ms] : wall_ms)
      std::printf("  %-8s %9.1f ms\n", name.c_str(), ms);
    std::printf("  total    %9.1f ms\n", total_wall_ms);
    std::printf("  user     %9.1f s\n", user_s);
    std::printf("  sys      %9.1f s\n", sys_s);
    std::printf("  peak rss %9.1f MB\n", peak_rss_mb);
  };

  const std::string out_path = args.get("out", default_out_name());
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

  const std::string baseline_path =
      args.get("baseline", "bench/baseline.json");

  if (args.has("update-baseline")) {
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

  if (args.get_bool("no-assert", false)) {
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

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.get_bool("help", false)) {
    usage(stdout);
    return 0;
  }
  // The shared flags plus every registered bench's own flags (each bench's
  // run() reads them from these Args, e.g. serve's --requests).
  std::vector<std::string> known = kFlags;
  for (const bench::BenchDef* def : bench::all_benches()) {
    for (const std::string& f : bench::split_csv(def->extra_flags)) {
      known.push_back(f);
    }
  }
  if (const auto unknown = args.first_unknown(known)) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unknown->c_str());
    usage(stderr);
    return 2;
  }

  if (args.get_bool("list", false)) {
    std::printf("registered benches (tlpbench --only <name,...>):\n");
    int width = 0;
    for (const bench::BenchDef* def : bench::all_benches())
      width = std::max(width, static_cast<int>(std::strlen(def->name)));
    for (const bench::BenchDef* def : bench::all_benches()) {
      std::printf("  %-*s %s", width, def->name, def->title);
      for (const std::string& f : bench::split_csv(def->extra_flags))
        std::printf("  [--%s N]", f.c_str());
      std::printf("\n");
    }
    std::printf("(micro_sim is standalone: google-benchmark, own JSON "
                "format)\n");
    return 0;
  }

  const std::string baseline_path =
      args.get("baseline", "bench/baseline.json");

  try {
    if (args.has("render-md") || args.has("check-md")) {
      Baseline b;
      if (args.has("from")) {
        b.results =
            report::Report::from_json(report::Json::parse(read_file(
                args.get("from", ""))));
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

      if (args.has("check-md")) {
        const std::string path = args.get("check-md", "EXPERIMENTS.md");
        const std::string committed = read_file(path);
        if (committed != md) {
          std::fprintf(stderr,
                       "doc drift: %s differs from the generator output "
                       "(%zu vs %zu bytes).\nRegenerate with: "
                       "tools/tlpbench --render-md %s\n",
                       path.c_str(), committed.size(), md.size(),
                       path.c_str());
          return 1;
        }
        std::printf("%s matches the generator output (%zu bytes)\n",
                    path.c_str(), md.size());
        return 0;
      }

      const std::string target = args.get("render-md", "true");
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

    return run_mode(args);
  } catch (const report::JsonError& e) {
    std::fprintf(stderr, "error: %s\n", e.message.c_str());
    return 1;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
