// Minimal command-line parsing for the tools/ front ends, the benches they
// run, and the quickstart example.
//
// Supports `--name value`, `--name=value`, and boolean `--flag`. Every
// program must run with no arguments (sensible defaults), so all options
// carry defaults.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tlp {

/// A malformed command line (unknown enum value, contradictory flags).
/// Binaries catch this in main() and exit with status 2 — distinct from
/// tlp::CheckError (bad input data / violated invariant → exit 1) so
/// scripts and CI can tell usage mistakes from runtime failures.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

  /// Numeric getters: the whole value must parse — "abc", "5x", "", "1e3"
  /// for an int, or an overflowing literal all throw tlp::CheckError naming
  /// the flag and the offending text — and the parsed value must land in
  /// [lo, hi] (inclusive; the defaults disable the range check). Binaries
  /// catch CheckError in main() and exit with status 1.
  [[nodiscard]] std::int64_t get_int_checked(
      const std::string& name, std::int64_t def,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] double get_double_checked(
      const std::string& name, double def,
      double lo = -std::numeric_limits<double>::infinity(),
      double hi = std::numeric_limits<double>::infinity()) const;

  /// Checked getter for enum-valued flags (--cache-policy, --format):
  /// returns the flag's value (or `def` when the flag is absent) only when
  /// it is one of `valid`; anything else throws tlp::UsageError with a
  /// diagnostic naming the flag, the offending value, and the full valid
  /// set. Callers turn that into exit code 2.
  [[nodiscard]] std::string get_choice(
      const std::string& name, const std::string& def,
      std::initializer_list<std::string_view> valid) const;

  /// Positional (non --flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// The first passed --flag (in sorted order) that is not in `known`, or
  /// nullopt when every flag is known. Lets binaries reject typos with a
  /// usage error instead of silently ignoring them.
  [[nodiscard]] std::optional<std::string> first_unknown(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
};

}  // namespace tlp
