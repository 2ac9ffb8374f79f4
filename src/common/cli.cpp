#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "common/check.hpp"

namespace tlp {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(std::move(tok));
      continue;
    }
    tok = tok.substr(2);
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      named_[tok.substr(0, eq)] = tok.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      named_[tok] = argv[++i];
    } else {
      named_[tok] = "true";
    }
  }
}

bool Args::has(const std::string& name) const { return named_.count(name) > 0; }

std::optional<std::string> Args::first_unknown(
    const std::vector<std::string>& known) const {
  for (const auto& [key, value] : named_) {  // std::map: sorted by name
    if (std::find(known.begin(), known.end(), key) == known.end()) return key;
  }
  return std::nullopt;
}

std::string Args::get(const std::string& name, const std::string& def) const {
  const auto it = named_.find(name);
  return it == named_.end() ? def : it->second;
}

std::int64_t Args::get_int_checked(const std::string& name, std::int64_t def,
                                   std::int64_t lo, std::int64_t hi) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return def;
  const std::string& text = it->second;
  std::int64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  TLP_CHECK_MSG(ec != std::errc::result_out_of_range,
                "flag --" << name << ": value \"" << text
                          << "\" overflows a 64-bit integer");
  TLP_CHECK_MSG(ec == std::errc() && ptr == end,
                "flag --" << name << ": cannot parse \"" << text
                          << "\" as an integer");
  TLP_CHECK_MSG(value >= lo && value <= hi,
                "flag --" << name << ": value " << value
                          << " out of range [" << lo << ", " << hi << "]");
  return value;
}

double Args::get_double_checked(const std::string& name, double def,
                                double lo, double hi) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return def;
  const std::string& text = it->second;
  // strtod with a full-consumption check: std::from_chars<double> is not
  // implemented by every libstdc++ this repo builds against.
  TLP_CHECK_MSG(!text.empty(), "flag --" << name << ": empty value");
  char* parse_end = nullptr;
  const double value = std::strtod(text.c_str(), &parse_end);
  TLP_CHECK_MSG(parse_end == text.c_str() + text.size(),
                "flag --" << name << ": cannot parse \"" << text
                          << "\" as a number");
  TLP_CHECK_MSG(value == value, "flag --" << name << ": NaN is not a value");
  TLP_CHECK_MSG(value >= lo && value <= hi,
                "flag --" << name << ": value " << value
                          << " out of range [" << lo << ", " << hi << "]");
  return value;
}

std::string Args::get_choice(
    const std::string& name, const std::string& def,
    std::initializer_list<std::string_view> valid) const {
  const auto it = named_.find(name);
  const std::string value = it == named_.end() ? def : it->second;
  for (const std::string_view v : valid) {
    if (value == v) return value;
  }
  std::string msg = "flag --" + name + ": unknown value \"" + value + "\"";
  msg += " (valid: ";
  bool first = true;
  for (const std::string_view v : valid) {
    if (!first) msg += ", ";
    first = false;
    msg.append(v);
  }
  msg += ")";
  throw UsageError(msg);
}

bool Args::get_bool(const std::string& name, bool def) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace tlp
