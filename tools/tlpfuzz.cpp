// tlpfuzz — differential & metamorphic fuzzing harness CLI.
//
//   tlpfuzz --iters 500 --seed 42        # fuzz campaign, exit 0/1
//   tlpfuzz --time-budget 30             # stop after ~30 s instead
//   tlpfuzz --expect-bugs                # self-check: seeded-bug kernels
//                                        # must ALL be caught (exit 1 if the
//                                        # harness misses one)
//   tlpfuzz --repro crash.el             # replay a minimized repro through
//                                        # every oracle and model
//   tlpfuzz --json report.json           # also write the JSON report
//   tlpfuzz --repro-dir repros           # minimize failures into .el files
//
// Exit codes: 0 all oracles held, 1 failures found (or, with --expect-bugs,
// a seeded bug was missed) or a malformed or out-of-range number, 2
// usage/environment error.
#include <fstream>
#include <iostream>
#include <string>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "fuzz/fuzz.hpp"

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "tlpfuzz: cannot write " << path << "\n";
    std::exit(2);
  }
  out << content;
}

void print_failures(const tlp::fuzz::FuzzReport& rep) {
  for (const tlp::fuzz::FailureRecord& f : rep.failures) {
    std::cout << "FAIL [" << f.failure.oracle << "/" << f.failure.subject
              << "] " << f.spec.summary() << "\n  " << f.failure.detail
              << "\n";
    if (!f.repro_file.empty()) {
      std::cout << "  minimized to |V|=" << f.minimized_vertices
                << " |E|=" << f.minimized_edges << " -> " << f.repro_file
                << "\n";
    }
  }
}

int run(const tlp::Args& args) {
  if (args.get_bool("help", false)) {
    std::cout
        << "usage: tlpfuzz [--iters N] [--seed S] [--time-budget SECONDS]\n"
        << "               [--repro FILE.el] [--expect-bugs]\n"
        << "               [--repro-dir DIR] [--json PATH] [--verbose]\n"
        << "Differential + metamorphic fuzzing of every kernel strategy,\n"
        << "framework replica, and fault plan against the CPU reference.\n";
    return 0;
  }
  if (const auto unknown = args.first_unknown(
          {"iters", "seed", "time-budget", "repro", "expect-bugs", "repro-dir",
           "json", "verbose", "help"})) {
    std::cerr << "error: unknown flag --" << *unknown << "\n";
    return 2;
  }

  tlp::fuzz::FuzzOptions opts;
  opts.seed = static_cast<std::uint64_t>(
      args.get_int_checked("seed", 42, 0));
  opts.iters = static_cast<std::uint64_t>(
      args.get_int_checked("iters", 500, 0, 100'000'000));
  opts.time_budget_s = args.get_double_checked("time-budget", 0.0, 0.0, 1e9);
  opts.repro_dir = args.get("repro-dir", "");
  opts.verbose = args.get_bool("verbose", false);
  const bool expect_bugs = args.get_bool("expect-bugs", false);

  try {
    if (expect_bugs) {
      const tlp::fuzz::ExpectBugsReport rep =
          tlp::fuzz::run_expect_bugs(2000, opts.verbose);
      for (const auto& m : rep.mutants) {
        std::cout << (m.caught ? "caught " : "MISSED ") << m.name;
        if (m.caught) {
          std::cout << "  (by: " << m.caught_by << ")";
          if (m.minimized_vertices >= 0) {
            std::cout << "  minimized |V|=" << m.minimized_vertices
                      << " |E|=" << m.minimized_edges;
          }
        }
        std::cout << "\n";
      }
      std::cout << "tlpfuzz: " << rep.mutants.size()
                << " seeded-bug kernels, "
                << (rep.all_caught() ? "all caught" : "SOME MISSED") << "\n";
      if (args.has("json"))
        write_file(args.get("json", ""), tlp::fuzz::report_to_json(rep));
      return rep.all_caught() ? 0 : 1;
    }

    tlp::fuzz::FuzzReport rep;
    if (args.has("repro")) {
      rep = tlp::fuzz::run_repro(args.get("repro", ""), opts);
      std::cout << "tlpfuzz: replayed " << args.get("repro", "") << " through "
                << rep.cases_run << " model/width combinations ("
                << rep.oracle_checks << " oracle checks)\n";
    } else {
      rep = tlp::fuzz::run_fuzz(opts);
      std::cout << "tlpfuzz: " << rep.cases_run << " cases, "
                << rep.oracle_checks << " oracle checks, "
                << rep.coverage_signatures << " coverage signatures, "
                << rep.failures.size() << " failures in " << rep.elapsed_s
                << " s (seed " << rep.seed << ")\n";
    }
    print_failures(rep);
    if (args.has("json"))
      write_file(args.get("json", ""), tlp::fuzz::report_to_json(rep));
    return rep.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "tlpfuzz: fatal: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

// A malformed flag is a usage error (exit 2) or, for a bad number, a
// CheckError (exit 1); both messages name the flag.
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
