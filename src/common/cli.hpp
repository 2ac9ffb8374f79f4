// Minimal command-line parsing for the tools/ front ends and the quickstart
// example.
//
// Supports `--name value`, `--name=value`, and boolean `--flag`. Every
// program must run with no arguments (sensible defaults), so all options
// carry defaults.
//
// A flag is accepted only if the program reads it. Every getter records the
// name it looks up; a program reads each option it will use, on the path
// that uses it, and then calls reject_unread() before doing any work, so a
// mistyped flag or one the chosen mode ignores stops the run instead of
// mislabelling it.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace tlp {

/// A malformed command line (unknown flag or enum value, contradictory
/// flags). run_main() turns it into exit status 2, distinct from
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
  /// A bare `--flag` is true. An explicit value must be one of true/false,
  /// 1/0, yes/no, on/off; anything else throws tlp::UsageError naming the
  /// flag (a bare flag followed by a positional argument reads it as the
  /// value).
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

  /// Numeric getters: the whole value must parse — "abc", "5x", "", "1e3"
  /// for an int, or an overflowing literal all throw tlp::CheckError naming
  /// the flag and the offending text — and the parsed value must land in
  /// [lo, hi] (inclusive; the defaults disable the range check).
  [[nodiscard]] std::int64_t get_int_checked(
      const std::string& name, std::int64_t def,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] double get_double_checked(
      const std::string& name, double def,
      double lo = -std::numeric_limits<double>::infinity(),
      double hi = std::numeric_limits<double>::infinity()) const;

  /// Checked getter for enum-valued flags (--cache-policy, --model):
  /// returns the flag's value (or `def` when the flag is absent) only when
  /// it is one of `valid`; anything else throws tlp::UsageError naming the
  /// flag, the offending value, and the full valid set.
  [[nodiscard]] std::string get_choice(
      const std::string& name, const std::string& def,
      const std::vector<std::string>& valid) const;

  /// The i-th positional (non --flag) argument, or `def` when there are
  /// fewer. Reading one consumes it and every positional before it.
  [[nodiscard]] std::string positional(std::size_t i,
                                       const std::string& def) const;

  /// Throws tlp::UsageError for the first passed flag, in sorted order,
  /// that no getter read ("unknown flag --X"), else for the first
  /// positional argument nothing consumed.
  void reject_unread() const;

 private:
  /// The value passed for `name` (recording the read), or nullptr.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
  mutable std::size_t positionals_read_ = 0;
};

/// Throws tlp::UsageError naming flag --`name`, `value` and the valid set
/// unless `value` is one of `valid`. Args::get_choice checks through it,
/// and a program checks each element of a list-valued flag with it.
void check_choice(const std::string& name, const std::string& value,
                  const std::vector<std::string>& valid);

/// The body of a program's main(): runs `body` on the parsed command line.
/// A tlp::UsageError exits 2 and a tlp::CheckError exits 1, each printed as
/// "error: <what>" on stderr.
int run_main(int argc, const char* const* argv, int (*body)(const Args&));

}  // namespace tlp
