// tlpfuzz driver: coverage-guided differential fuzzing of the whole stack.
//
// Each iteration draws a CaseSpec (or mutates a corpus entry that previously
// produced a new coverage signature), materializes graph + features + model,
// and runs the oracle battery from fuzz/oracles.hpp. Failing cases are
// shrunk with fuzz/minimize.hpp into `.el` repro files that `tlpfuzz
// --repro` replays. `run_expect_bugs` is the self-check mode: it runs the
// deliberately broken kernels from fuzz/kernel_runners.hpp through the same
// oracles and reports which ones the harness caught (all of them, or the
// harness itself has a bug).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fuzz/case_gen.hpp"
#include "fuzz/oracles.hpp"
#include "graph/csr.hpp"

namespace tlp::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 42;
  std::uint64_t iters = 500;
  /// Wall-clock budget in seconds; 0 disables. Whichever of iters /
  /// time_budget_s is hit first ends the run.
  double time_budget_s = 0;
  /// Directory for minimized `.el` repro files; empty disables minimization.
  std::string repro_dir;
  bool verbose = false;
};

/// One recorded failure, flattened to (case, oracle, subject).
struct FailureRecord {
  CaseSpec spec;
  OracleFailure failure;
  std::string repro_file;  ///< non-empty if a minimized repro was written
  graph::VertexId minimized_vertices = -1;
  graph::EdgeOffset minimized_edges = -1;
};

struct FuzzReport {
  std::uint64_t seed = 0;
  std::uint64_t iters_requested = 0;
  std::uint64_t cases_run = 0;
  std::uint64_t oracle_checks = 0;  ///< oracle invocations across all cases
  std::uint64_t coverage_signatures = 0;
  std::uint64_t corpus_size = 0;
  double elapsed_s = 0;
  /// Failures per oracle name (zero entries included for every oracle).
  std::map<std::string, std::uint64_t> failure_counts;
  std::vector<FailureRecord> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the fuzz loop. Deterministic for a fixed (seed, iters) pair as long
/// as no time budget interrupts it.
FuzzReport run_fuzz(const FuzzOptions& opts);

/// Replays a minimized repro graph through the differential oracles for
/// every model kind at the boundary feature widths.
FuzzReport run_repro(const std::string& path, const FuzzOptions& opts);

/// Self-check: every seeded-bug mutant must be caught by the deterministic
/// battery, and the row-bound mutant's failing graph must minimize small.
struct ExpectBugsReport {
  struct MutantResult {
    std::string name;
    bool caught = false;
    std::string caught_by;  ///< battery case that flagged it
    std::string detail;
    graph::VertexId minimized_vertices = -1;
    graph::EdgeOffset minimized_edges = -1;
  };
  std::vector<MutantResult> mutants;

  [[nodiscard]] bool all_caught() const {
    for (const auto& m : mutants) {
      if (!m.caught) return false;
    }
    return !mutants.empty();
  }
};

ExpectBugsReport run_expect_bugs(bool verbose = false);

std::string report_to_json(const FuzzReport& r);
std::string report_to_json(const ExpectBugsReport& r);

}  // namespace tlp::fuzz
