#include "fuzz/fuzz.hpp"

#include <chrono>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "fuzz/kernel_runners.hpp"
#include "fuzz/minimize.hpp"
#include "models/reference.hpp"
#include "sim/device.hpp"
#include "systems/system.hpp"

namespace tlp::fuzz {

namespace {

using Clock = std::chrono::steady_clock;

/// Predicate-evaluation budget per minimization.
constexpr std::uint64_t kMinimizeEvals = 2000;

/// At most this many failing cases of a campaign are minimized
/// (minimization re-runs the failing subject hundreds of times).
constexpr std::uint64_t kMaxMinimized = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string json_escape(const std::string& s) {
  std::ostringstream os;
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          os << "\\u00" << std::hex << static_cast<int>(ch) << std::dec;
        } else {
          os << ch;
        }
    }
  }
  return os.str();
}

/// Runs the oracle battery for one case. The cheap differential oracles run
/// every iteration; the more expensive metamorphic ones rotate so a long
/// campaign still covers all of them densely.
std::vector<OracleFailure> run_oracles(const CaseContext& cx, std::uint64_t id,
                                       std::uint64_t* checks) {
  std::vector<OracleFailure> fails;
  auto add = [&](std::vector<OracleFailure> v) {
    ++*checks;
    fails.insert(fails.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
  };
  add(check_kernels(cx));
  add(check_systems(cx));
  if (id % 3 == 0) add(check_reorder(cx));
  if (id % 4 == 0) add(check_partitions(cx));
  if (id % 5 == 0) add(check_determinism(cx));
  if (id % 5 == 1) add(check_assignments(cx));
  if (id % 6 == 0) add(check_faults(cx));
  if (id % 7 == 0) add(check_serving(cx));
  return fails;
}

/// Predicate for the minimizer: does `runner` still disagree with the
/// reference on this graph (features/weights re-derived per candidate)?
FailurePredicate kernel_predicate(const CaseSpec& spec,
                                  const KernelRunner& runner) {
  return [spec, &runner](const graph::Csr& g2) -> bool {
    if (g2.num_vertices() <= 0) return false;
    try {
      const tensor::Tensor h2 = make_features(spec, g2);
      const models::ConvSpec conv2 = make_conv_spec(spec, g2);
      if (!runner.supports(conv2)) return false;
      const tensor::Tensor ref2 = models::reference_conv(g2, h2, conv2);
      sim::Device dev;
      const tensor::Tensor got =
          runner.run(dev, g2, h2, conv2, spec.launch);
      std::string detail;
      return !outputs_close(got, ref2, &detail);
    } catch (...) {
      return true;  // a crash is also a failure worth preserving
    }
  };
}

FailurePredicate system_predicate(const CaseSpec& spec,
                                  const std::string& name) {
  return [spec, name](const graph::Csr& g2) -> bool {
    if (g2.num_vertices() <= 0) return false;
    try {
      const tensor::Tensor h2 = make_features(spec, g2);
      const models::ConvSpec conv2 = make_conv_spec(spec, g2);
      auto sys = systems::make_system(name);
      if (!sys->supports(conv2.kind, false)) return false;
      if (conv2.has_edge_weights() && name != "tlpgnn") return false;
      const tensor::Tensor ref2 = models::reference_conv(g2, h2, conv2);
      sim::Device dev;
      const systems::RunResult r = sys->run(dev, g2, h2, conv2);
      std::string detail;
      return !outputs_close(r.output, ref2, &detail);
    } catch (...) {
      return true;
    }
  };
}

/// Minimizes the failing case's graph and writes an `.el` repro. Best
/// effort: any error just leaves the record without a repro file.
void minimize_failure(const CaseContext& cx, const FuzzOptions& opts,
                      FailureRecord* rec) {
  FailurePredicate pred;
  if (rec->failure.oracle == "kernel_diff") {
    for (const KernelRunner& k : kernel_runners()) {
      if (k.name == rec->failure.subject) pred = kernel_predicate(cx.spec, k);
    }
  } else if (rec->failure.oracle == "system_diff") {
    pred = system_predicate(cx.spec, rec->failure.subject);
  }
  if (!pred) return;
  try {
    if (!pred(cx.g)) return;  // not reproducible in isolation; skip
    const MinimizeResult m = minimize_graph(cx.g, pred, kMinimizeEvals);
    rec->minimized_vertices = m.graph.num_vertices();
    rec->minimized_edges = m.graph.num_edges();
    std::filesystem::create_directories(opts.repro_dir);
    std::ostringstream name;
    name << "case_" << cx.spec.id << "_" << rec->failure.subject << ".el";
    const std::string path =
        (std::filesystem::path(opts.repro_dir) / name.str()).string();
    write_repro(path, m.graph);
    rec->repro_file = path;
  } catch (const std::exception&) {
    // leave the record un-minimized
  }
}

CaseSpec battery_case(GraphShape shape, graph::VertexId n,
                      graph::EdgeOffset m, std::int64_t f,
                      models::ModelKind model, std::uint64_t seed) {
  CaseSpec c;
  c.shape = shape;
  c.n = n;
  c.m = m;
  c.f = f;
  c.model = model;
  c.seed = seed;
  return c;
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& opts) {
  const auto t0 = Clock::now();
  FuzzReport rep;
  rep.seed = opts.seed;
  rep.iters_requested = opts.iters;
  for (const std::string& name : oracle_names()) rep.failure_counts[name] = 0;

  Rng stream(opts.seed);
  std::vector<CaseSpec> corpus;
  std::set<std::uint64_t> coverage;
  std::uint64_t minimized = 0;

  for (std::uint64_t id = 0; id < opts.iters; ++id) {
    if (opts.time_budget_s > 0 && seconds_since(t0) > opts.time_budget_s) {
      break;
    }
    CaseSpec c;
    if (!corpus.empty() && id % 3 == 2) {
      const std::uint64_t pick = stream.next_below(corpus.size());
      c = mutate_case(corpus[static_cast<std::size_t>(pick)], id, stream);
    } else {
      c = generate_case(id, stream);
    }
    ++rep.cases_run;

    std::vector<OracleFailure> fails;
    CaseContext cx;
    bool built = false;
    try {
      cx = CaseContext::make(c);
      built = true;
    } catch (const std::exception& e) {
      fails.push_back({"case_build", shape_name(c.shape),
                       std::string("exception: ") + e.what()});
    }
    if (built) {
      if (coverage.insert(coverage_key(c, cx.g)).second) corpus.push_back(c);
      fails = run_oracles(cx, id, &rep.oracle_checks);
    }
    if (opts.verbose) {
      std::cout << c.summary() << (fails.empty() ? "" : "  <-- FAIL")
                << std::endl;
    }
    for (OracleFailure& f : fails) {
      ++rep.failure_counts[f.oracle];
      FailureRecord rec;
      rec.spec = c;
      rec.failure = std::move(f);
      if (built && !opts.repro_dir.empty() && minimized < kMaxMinimized &&
          (rec.failure.oracle == "kernel_diff" ||
           rec.failure.oracle == "system_diff")) {
        minimize_failure(cx, opts, &rec);
        if (!rec.repro_file.empty()) ++minimized;
      }
      rep.failures.push_back(std::move(rec));
    }
  }
  rep.coverage_signatures = coverage.size();
  rep.corpus_size = corpus.size();
  rep.elapsed_s = seconds_since(t0);
  return rep;
}

FuzzReport run_repro(const std::string& path, const FuzzOptions& opts) {
  const auto t0 = Clock::now();
  FuzzReport rep;
  rep.seed = opts.seed;
  for (const std::string& name : oracle_names()) rep.failure_counts[name] = 0;

  const graph::Csr g = load_repro(path);
  std::uint64_t id = 0;
  for (const models::ModelKind kind : models::kAllModels) {
    // 32 and 33 straddle the chunk boundary — the widths where feature-tail
    // bugs live.
    for (const std::int64_t f : {std::int64_t{32}, std::int64_t{33}}) {
      CaseSpec c;
      c.id = id;
      c.seed = opts.seed ^ (0x9e3779b97f4a7c15ULL * (id + 1));
      c.n = g.num_vertices();
      c.m = g.num_edges();
      c.f = f;
      c.model = kind;
      CaseContext cx;
      cx.spec = c;
      cx.g = g;
      cx.h = make_features(c, g);
      cx.conv = make_conv_spec(c, g);
      cx.ref = models::reference_conv(g, cx.h, cx.conv);

      std::vector<OracleFailure> fails;
      auto add = [&](std::vector<OracleFailure> v) {
        ++rep.oracle_checks;
        fails.insert(fails.end(), std::make_move_iterator(v.begin()),
                     std::make_move_iterator(v.end()));
      };
      add(check_kernels(cx));
      add(check_systems(cx));
      add(check_reorder(cx));
      add(check_partitions(cx));
      add(check_determinism(cx));
      add(check_assignments(cx));
      if (kind == models::ModelKind::kGcn && f == 32) add(check_faults(cx));

      ++rep.cases_run;
      if (opts.verbose) {
        std::cout << "repro " << path << " " << models::model_name(kind)
                  << " f=" << f << (fails.empty() ? "" : "  <-- FAIL")
                  << std::endl;
      }
      for (OracleFailure& fl : fails) {
        ++rep.failure_counts[fl.oracle];
        FailureRecord rec;
        rec.spec = c;
        rec.failure = std::move(fl);
        rep.failures.push_back(std::move(rec));
      }
      ++id;
    }
  }
  rep.iters_requested = rep.cases_run;
  rep.elapsed_s = seconds_since(t0);
  return rep;
}

ExpectBugsReport run_expect_bugs(bool verbose) {
  ExpectBugsReport rep;
  // Deterministic battery chosen so every seeded bug class has at least one
  // case that exposes it: a hub (row bounds, norms), a chain (self terms), a
  // 33-wide power-law graph (feature tail), all-isolated vertices under Sage
  // (zero-degree mean), and a ring (control).
  const CaseSpec battery[] = {
      battery_case(GraphShape::kStar, 24, 0, 16, models::ModelKind::kGcn,
                   0xeb1ULL),
      battery_case(GraphShape::kChain, 16, 0, 8, models::ModelKind::kGin,
                   0xeb2ULL),
      battery_case(GraphShape::kChungLu, 64, 256, 33, models::ModelKind::kGcn,
                   0xeb3ULL),
      battery_case(GraphShape::kIsolated, 8, 0, 8, models::ModelKind::kSage,
                   0xeb4ULL),
      battery_case(GraphShape::kRing, 32, 4, 16, models::ModelKind::kGcn,
                   0xeb5ULL),
  };
  for (const KernelRunner& mutant : mutant_runners()) {
    ExpectBugsReport::MutantResult mr;
    mr.name = mutant.name;
    for (const CaseSpec& c : battery) {
      const CaseContext cx = CaseContext::make(c);
      if (!mutant.supports(cx.conv)) continue;
      try {
        sim::Device dev;
        const tensor::Tensor got =
            mutant.run(dev, cx.g, cx.h, cx.conv, c.launch);
        std::string detail;
        if (!outputs_close(got, cx.ref, &detail)) {
          mr.caught = true;
          mr.detail = detail;
        }
      } catch (const std::exception& e) {
        mr.caught = true;
        mr.detail = std::string("exception: ") + e.what();
      }
      if (mr.caught) {
        mr.caught_by = c.summary();
        const FailurePredicate pred = kernel_predicate(c, mutant);
        try {
          if (pred(cx.g)) {
            const MinimizeResult m =
                minimize_graph(cx.g, pred, kMinimizeEvals);
            mr.minimized_vertices = m.graph.num_vertices();
            mr.minimized_edges = m.graph.num_edges();
          }
        } catch (const std::exception&) {
          // minimization is best-effort; "caught" already stands
        }
        break;
      }
    }
    if (verbose) {
      std::cout << mr.name << ": "
                << (mr.caught ? "caught by " + mr.caught_by : "MISSED")
                << std::endl;
    }
    rep.mutants.push_back(std::move(mr));
  }
  return rep;
}

std::string report_to_json(const FuzzReport& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"tool\": \"tlpfuzz\",\n";
  os << "  \"mode\": \"fuzz\",\n";
  os << "  \"seed\": " << r.seed << ",\n";
  os << "  \"iters_requested\": " << r.iters_requested << ",\n";
  os << "  \"cases_run\": " << r.cases_run << ",\n";
  os << "  \"oracle_checks\": " << r.oracle_checks << ",\n";
  os << "  \"coverage_signatures\": " << r.coverage_signatures << ",\n";
  os << "  \"corpus_size\": " << r.corpus_size << ",\n";
  os << "  \"elapsed_s\": " << r.elapsed_s << ",\n";
  os << "  \"failure_counts\": {";
  bool first = true;
  for (const auto& [name, count] : r.failure_counts) {
    os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": " << count;
    first = false;
  }
  os << "},\n";
  os << "  \"failures\": [";
  first = true;
  for (const FailureRecord& f : r.failures) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"case\": \"" << json_escape(f.spec.summary())
       << "\", \"oracle\": \"" << json_escape(f.failure.oracle)
       << "\", \"subject\": \"" << json_escape(f.failure.subject)
       << "\", \"detail\": \"" << json_escape(f.failure.detail) << "\"";
    if (!f.repro_file.empty()) {
      os << ", \"repro\": \"" << json_escape(f.repro_file)
         << "\", \"minimized_vertices\": " << f.minimized_vertices
         << ", \"minimized_edges\": " << f.minimized_edges;
    }
    os << "}";
  }
  os << (r.failures.empty() ? "" : "\n  ") << "],\n";
  os << "  \"ok\": " << (r.ok() ? "true" : "false") << "\n";
  os << "}\n";
  return os.str();
}

std::string report_to_json(const ExpectBugsReport& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"tool\": \"tlpfuzz\",\n";
  os << "  \"mode\": \"expect-bugs\",\n";
  os << "  \"mutants\": [";
  bool first = true;
  for (const auto& m : r.mutants) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"name\": \"" << json_escape(m.name) << "\", \"caught\": "
       << (m.caught ? "true" : "false") << ", \"caught_by\": \""
       << json_escape(m.caught_by) << "\", \"detail\": \""
       << json_escape(m.detail)
       << "\", \"minimized_vertices\": " << m.minimized_vertices
       << ", \"minimized_edges\": " << m.minimized_edges << "}";
  }
  os << (r.mutants.empty() ? "" : "\n  ") << "],\n";
  os << "  \"all_caught\": " << (r.all_caught() ? "true" : "false") << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace tlp::fuzz
