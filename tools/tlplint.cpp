// tlplint — the tlpsan command-line front end.
//
// Runs every registered GNN system (or a --systems subset) on the stock
// synthetic lint graphs with an access trace attached, feeds the traces
// through both analysis-pass families, and reports the diagnostics:
//
//   tlplint                          # human-readable report, exit 0/1
//   tlplint --serve                  # also lint a served Server session
//   tlplint --json report.json       # also write the machine-readable report
//   tlplint --sarif report.sarif     # also write SARIF 2.1.0 (CI annotations)
//   tlplint --baseline tools/tlplint_baseline.json
//                                    # gate: exit 1 on any NEW unsuppressed
//                                    # diagnostic not in the baseline
//   tlplint --update-baseline tools/tlplint_baseline.json
//                                    # refresh the checked-in baseline
//   tlplint --fail-on warning        # non-baseline gate severity (default
//                                    # error; note/warning/error)
//   tlplint --strict                 # exit 1 if any trace was truncated
//   tlplint --max-trace-mb 64        # per-run trace byte budget
//
// Without --baseline, the exit code is 1 when any unsuppressed diagnostic at
// or above the --fail-on severity exists (useful locally); with --baseline,
// only *new* findings gate, so known paper-documented pathologies stay
// visible without breaking CI. --strict makes a truncated trace (TLP-META-000
// — incomplete coverage) failing in either mode. An unknown flag or a
// malformed boolean value is a usage error (exit 2); a malformed number
// exits 1. See README.md ("Linting the kernels") for the workflow.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/diagnostics.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

namespace {

using tlp::analysis::Diagnostic;
using tlp::analysis::Severity;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "tlplint: cannot read " << path << "\n";
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "tlplint: cannot write " << path << "\n";
    std::exit(2);
  }
  out << content;
}

Severity parse_fail_on(const std::string& s) {
  if (s == "note") return Severity::kNote;
  if (s == "warning") return Severity::kWarning;
  if (s == "error") return Severity::kError;
  std::cerr << "tlplint: --fail-on must be note, warning, or error (got '"
            << s << "')\n";
  std::exit(2);
}

void print_report(const std::vector<Diagnostic>& diags) {
  tlp::TextTable table(
      {"severity", "rule", "system", "dataset", "kernel", "site", "count"});
  for (const Diagnostic& d : diags) {
    std::string site = d.site;
    if (!d.site2.empty()) site += " / " + d.site2;
    table.add_row({std::string(severity_name(d.severity)) +
                       (d.suppressed ? " (suppressed)" : ""),
                   d.rule, d.system, d.dataset, d.kernel, site,
                   std::to_string(d.count)});
  }
  if (table.num_rows() > 0) table.print();

  for (const Diagnostic& d : diags) {
    std::cout << "\n" << severity_name(d.severity) << " " << d.rule << " ["
              << d.system << "/" << d.dataset << "/" << d.kernel << "]";
    if (!d.location.empty()) std::cout << " at " << d.location;
    std::cout << "\n  " << d.message << "\n";
    if (d.suppressed)
      std::cout << "  suppressed: " << d.suppress_reason << "\n";
  }
}

int run(const tlp::Args& args) {
  if (args.get_bool("help", false)) {
    std::cout
        << "usage: tlplint [--systems=a,b,..] [--serve] [--json PATH]\n"
        << "               [--sarif PATH] [--fail-on note|warning|error]\n"
        << "               [--strict] [--max-trace-mb N]\n"
        << "               [--baseline PATH | --update-baseline PATH]\n"
        << "Runs tlpsan over every registered system on the synthetic lint\n"
        << "graphs (--serve adds a served Server session with a fault\n"
        << "storm). Exits 1 on new-vs-baseline findings (with --baseline)\n"
        << "or on any unsuppressed finding at or above --fail-on severity\n"
        << "(without; default error). --strict also fails on a truncated\n"
        << "trace.\n";
    return 0;
  }
  if (const auto unknown = args.first_unknown(
          {"systems", "serve", "json", "sarif", "fail-on", "strict",
           "max-trace-mb", "baseline", "update-baseline", "help"})) {
    std::cerr << "error: unknown flag --" << *unknown << "\n";
    return 2;
  }

  std::vector<std::string> systems =
      tlp::analysis::lint_system_names();
  if (args.has("systems")) systems = split_csv(args.get("systems", ""));

  const std::vector<tlp::analysis::LintDataset> datasets =
      tlp::analysis::default_lint_datasets();

  tlp::analysis::PassOptions opt;
  opt.gpu = tlp::analysis::lint_gpu_spec();
  opt.trace_max_bytes =
      static_cast<std::size_t>(
          args.get_int_checked("max-trace-mb", 1024, 1, 1 << 20))
      << 20;
  const Severity fail_on = parse_fail_on(args.get("fail-on", "error"));
  const bool strict = args.get_bool("strict", false);
  const bool with_serve = args.get_bool("serve", false);

  std::cerr << "tlplint: analyzing " << systems.size() << " systems x "
            << datasets.size() << " datasets"
            << (with_serve ? " + served session" : "") << "...\n";
  tlp::analysis::LintReport report =
      tlp::analysis::lint_systems(systems, datasets, opt);
  if (with_serve) {
    tlp::analysis::LintReport serve = tlp::analysis::lint_serve(opt);
    report.diagnostics.insert(
        report.diagnostics.end(),
        std::make_move_iterator(serve.diagnostics.begin()),
        std::make_move_iterator(serve.diagnostics.end()));
    report.trace_truncated |= serve.trace_truncated;
    report.runs += serve.runs;
    report.launches += serve.launches;
    tlp::analysis::sort_diagnostics(report.diagnostics);
  }

  int errors = 0, warnings = 0, notes = 0;
  int gating = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.suppressed || d.severity == Severity::kNote)
      ++notes;
    else if (d.severity == Severity::kError)
      ++errors;
    else
      ++warnings;
    if (!d.suppressed && d.severity >= fail_on) ++gating;
  }

  print_report(report.diagnostics);
  std::cout << "\ntlplint: " << report.runs << " runs, " << report.launches
            << " launches analyzed; " << errors << " errors, " << warnings
            << " warnings, " << notes << " notes (suppressed/informational)";
  if (report.trace_truncated) std::cout << " [trace truncated]";
  std::cout << "\n";

  const std::string json =
      tlp::analysis::to_json(report.diagnostics, report.trace_truncated);
  if (args.has("json")) write_file(args.get("json", ""), json);
  if (args.has("sarif"))
    write_file(args.get("sarif", ""),
               tlp::analysis::to_sarif(report.diagnostics));
  if (args.has("update-baseline")) {
    write_file(args.get("update-baseline", ""), json);
    std::cout << "tlplint: baseline updated ("
              << report.diagnostics.size() << " diagnostics)\n";
    return 0;
  }

  // A truncated trace means the analysis covered a prefix, not the run:
  // under --strict that can never pass, baseline or not.
  int strict_rc = 0;
  if (strict && report.trace_truncated) {
    std::cout << "tlplint: trace truncated under --strict — coverage "
                 "incomplete (raise --max-trace-mb)\n";
    strict_rc = 1;
  }

  if (args.has("baseline")) {
    const std::vector<std::string> baseline_keys =
        tlp::analysis::keys_from_json(read_file(args.get("baseline", "")));
    const std::vector<Diagnostic> fresh =
        tlp::analysis::new_versus_baseline(report.diagnostics, baseline_keys);
    if (!fresh.empty()) {
      std::cout << "\ntlplint: " << fresh.size()
                << " NEW diagnostic(s) not in baseline:\n";
      for (const Diagnostic& d : fresh)
        std::cout << "  " << d.key() << "\n    " << d.message << "\n";
      std::cout << "If intended, refresh with: tlplint --update-baseline "
                << args.get("baseline", "") << "\n";
      return 1;
    }
    std::cout << "tlplint: no new diagnostics versus baseline ("
              << baseline_keys.size() << " baselined keys)\n";
    return strict_rc;
  }

  if (gating > 0) {
    std::cout << "tlplint: " << gating
              << " unsuppressed finding(s) at or above --fail-on "
              << severity_name(fail_on) << "\n";
    return 1;
  }
  return strict_rc;
}

}  // namespace

int main(int argc, char** argv) {
  const tlp::Args args(argc, argv);
  try {
    return run(args);
  } catch (const tlp::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const tlp::CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
