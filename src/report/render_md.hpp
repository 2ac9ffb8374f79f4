// Renders EXPERIMENTS.md from a tlpbench Report (DESIGN.md §9).
//
// The document is *derived*: paper-side numbers and deviation commentary are
// fixed text owned by this generator, every measured number is interpolated
// from the report, and a provenance footer records where the data came from.
// `tlpbench --render-md` writes it; CI fails when the committed file drifts
// from the generator output. This file is the only place a bench result is
// formatted: tlpbench prints each bench's section from its fresh records.
#pragma once

#include <string>
#include <vector>

#include "report/report.hpp"
#include "report/shapes.hpp"

namespace tlp::report {

/// The EXPERIMENTS.md section of one bench: heading, config line, tables and
/// commentary, rendered from `report`'s records of `bench`. Empty when
/// `bench` has no section.
std::string render_bench_md(const Report& report, const std::string& bench);

/// Full EXPERIMENTS.md content for `report`, with the shape-assertion
/// outcomes summarized up front and every bench's render_bench_md section
/// after them. Deterministic: same report + outcomes, same bytes.
std::string render_experiments_md(const Report& report,
                                  const std::vector<ShapeOutcome>& shapes);

}  // namespace tlp::report
