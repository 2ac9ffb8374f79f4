// Shape assertions: the regression language `bench/baseline.json` is written
// in (DESIGN.md §9).
//
// The reproduction target is the *shape* of each paper result — who wins, by
// roughly what factor, through which mechanism — not absolute milliseconds.
// Assertions therefore express orderings, tolerance bands and monotone
// trends over the records of a Report, and are expected to hold at any
// replica scale (the CI smoke suite runs them scaled down).
#pragma once

#include <string>
#include <vector>

#include "report/json.hpp"
#include "report/report.hpp"

namespace tlp::report {

/// Selects records within one bench. Empty (or "*") section/dataset/variant
/// fields are wildcards; wildcard section/dataset expand into a for-all over
/// every combination present in the bench's records.
struct Selector {
  std::string section;
  std::string dataset;
  std::string variant;
  std::string metric;  ///< falls back to the assertion-level metric

  static Selector from_json(const Json& j);
};

/// One checkable claim about a Report. `kind` is one of:
///   "less"       value(a) < value(b) * (1 + tol), for all expansions
///   "ratio_band" lo <= value(a) / value(b) <= hi
///   "band"       lo <= value(a) <= hi
///   "zero"       value(a) == 0 exactly
///   "increasing" values over `series` variants rise (v[i+1] >= v[i]*(1-tol))
///   "decreasing" values over `series` variants fall (v[i+1] <= v[i]*(1+tol))
struct ShapeAssertion {
  std::string id;      ///< stable name, reported on failure
  std::string bench;   ///< bench the records come from
  std::string kind;
  std::string metric;  ///< default metric for both selectors
  Selector a;
  Selector b;                        ///< comparison side (less / ratio_band)
  double lo = 0, hi = 0, tol = 0;
  std::vector<std::string> series;   ///< variant order (increasing/decreasing)
  std::string note;                  ///< the paper claim this encodes

  static ShapeAssertion from_json(const Json& j);
};

struct ShapeOutcome {
  std::string id;
  bool passed = false;
  int comparisons = 0;  ///< expansions evaluated (0 itself is a failure)
  std::string detail;   ///< first failure, or a pass summary
  std::string note;
};

/// Parses the "assertions" array of a baseline document.
std::vector<ShapeAssertion> assertions_from_json(const Json& baseline);

/// Evaluates one assertion against a report. Unknown kinds, empty
/// expansions, and missing metrics all fail (they signal schema drift).
ShapeOutcome evaluate(const ShapeAssertion& assertion, const Report& report);

/// Evaluates all assertions; order preserved.
std::vector<ShapeOutcome> evaluate_all(
    const std::vector<ShapeAssertion>& assertions, const Report& report);

}  // namespace tlp::report
