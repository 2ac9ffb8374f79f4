#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
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

const std::string* Args::find(const std::string& name) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return nullptr;
  read_.insert(name);
  return &it->second;
}

bool Args::has(const std::string& name) const { return find(name) != nullptr; }

std::string Args::get(const std::string& name, const std::string& def) const {
  const std::string* value = find(name);
  return value == nullptr ? def : *value;
}

std::int64_t Args::get_int_checked(const std::string& name, std::int64_t def,
                                   std::int64_t lo, std::int64_t hi) const {
  const std::string* found = find(name);
  if (found == nullptr) return def;
  const std::string& text = *found;
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
  const std::string* found = find(name);
  if (found == nullptr) return def;
  const std::string& text = *found;
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

std::string Args::get_choice(const std::string& name, const std::string& def,
                             const std::vector<std::string>& valid) const {
  std::string value = get(name, def);
  check_choice(name, value, valid);
  return value;
}

bool Args::get_bool(const std::string& name, bool def) const {
  const std::string* found = find(name);
  if (found == nullptr) return def;
  const std::string& v = *found;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw UsageError("flag --" + name + ": expected a boolean (true/false, "
                   "1/0, yes/no, on/off), got \"" + v + "\"");
}

std::string Args::positional(std::size_t i, const std::string& def) const {
  if (i >= positional_.size()) return def;
  positionals_read_ = std::max(positionals_read_, i + 1);
  return positional_[i];
}

void Args::reject_unread() const {
  for (const auto& [name, value] : named_) {  // std::map: sorted by name
    if (read_.count(name) == 0) throw UsageError("unknown flag --" + name);
  }
  if (positionals_read_ < positional_.size()) {
    throw UsageError("unexpected argument \"" +
                     positional_[positionals_read_] + "\"");
  }
}

void check_choice(const std::string& name, const std::string& value,
                  const std::vector<std::string>& valid) {
  if (std::find(valid.begin(), valid.end(), value) != valid.end()) return;
  std::string msg = "flag --" + name + ": unknown value \"" + value + "\"";
  msg += " (valid: ";
  for (std::size_t i = 0; i < valid.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += valid[i];
  }
  msg += ")";
  throw UsageError(msg);
}

int run_main(int argc, const char* const* argv, int (*body)(const Args&)) {
  try {
    return body(Args(argc, argv));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace tlp
