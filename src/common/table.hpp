// Plain-text table rendering for the benchmark harness: every bench prints
// the same rows/series the paper reports, via this printer.
#pragma once

#include <string>
#include <vector>

namespace tlp {

/// Column-aligned ASCII table. Cells are strings; the caller formats numbers
/// (see format.hpp). First row added with header() is underlined.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Adds one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with 2-space gutters, left-aligned first column, right-aligned
  /// numeric columns.
  [[nodiscard]] std::string to_string() const;

  /// Convenience: render to stdout.
  void print() const;

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tlp
