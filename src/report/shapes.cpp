#include "report/shapes.hpp"

#include <cmath>
#include <set>
#include <utility>

namespace tlp::report {

namespace {

bool is_wild(const std::string& s) { return s.empty() || s == "*"; }

std::string fmt(double v) { return json_number(v); }

/// Key describing one expansion of a wildcard selector.
struct Combo {
  std::string section;
  std::string dataset;

  bool operator<(const Combo& o) const {
    return section != o.section ? section < o.section : dataset < o.dataset;
  }
  [[nodiscard]] std::string label() const {
    if (section.empty() && dataset.empty()) return "(all)";
    if (section.empty()) return dataset;
    if (dataset.empty()) return section;
    return section + "/" + dataset;
  }
};

/// All (section, dataset) combinations the selector's wildcards expand into,
/// taken from the records that match its fixed fields.
std::vector<Combo> expand(const Report& rep, const std::string& bench,
                          const Selector& sel) {
  std::set<Combo> combos;
  for (const Record* r :
       rep.select(bench, is_wild(sel.section) ? "" : sel.section,
                  is_wild(sel.dataset) ? "" : sel.dataset,
                  is_wild(sel.variant) ? "" : sel.variant)) {
    combos.insert({is_wild(sel.section) ? r->section : sel.section,
                   is_wild(sel.dataset) ? r->dataset : sel.dataset});
  }
  return {combos.begin(), combos.end()};
}

/// Value of `sel`'s metric at one expansion point. The variant must be fixed
/// by now (either in the selector or substituted from a series).
std::optional<double> value_at(const Report& rep, const ShapeAssertion& as,
                               const Selector& sel, const Combo& combo,
                               const std::string& variant) {
  const std::string metric = sel.metric.empty() ? as.metric : sel.metric;
  return rep.value(as.bench, combo.section, combo.dataset, variant, metric);
}

ShapeOutcome outcome_fail(const ShapeAssertion& as, std::string detail) {
  return {as.id, false, 0, std::move(detail), as.note};
}

}  // namespace

Selector Selector::from_json(const Json& j) {
  Selector s;
  s.section = j.string_or("section", "");
  s.dataset = j.string_or("dataset", "");
  s.variant = j.string_or("variant", "");
  s.metric = j.string_or("metric", "");
  return s;
}

ShapeAssertion ShapeAssertion::from_json(const Json& j) {
  ShapeAssertion a;
  a.id = j.at("id").as_string();
  a.bench = j.at("bench").as_string();
  a.kind = j.at("kind").as_string();
  a.metric = j.string_or("metric", "");
  if (const Json* sa = j.find("a")) a.a = Selector::from_json(*sa);
  if (const Json* sb = j.find("b")) a.b = Selector::from_json(*sb);
  a.lo = j.number_or("lo", 0);
  a.hi = j.number_or("hi", 0);
  a.tol = j.number_or("tol", 0);
  if (const Json* s = j.find("series")) {
    for (const Json& v : s->items()) a.series.push_back(v.as_string());
  }
  a.note = j.string_or("note", "");
  return a;
}

std::vector<ShapeAssertion> assertions_from_json(const Json& baseline) {
  std::vector<ShapeAssertion> out;
  for (const Json& j : baseline.at("assertions").items()) {
    out.push_back(ShapeAssertion::from_json(j));
  }
  return out;
}

ShapeOutcome evaluate(const ShapeAssertion& as, const Report& rep) {
  if (rep.find_bench(as.bench) == nullptr) {
    return outcome_fail(as, "bench \"" + as.bench + "\" missing from report");
  }

  ShapeOutcome out{as.id, true, 0, "", as.note};
  auto fail_point = [&](const Combo& c, const std::string& why) {
    out.passed = false;
    if (!out.detail.empty()) out.detail += "; ";
    out.detail += c.label() + ": " + why;
  };

  const std::vector<Combo> combos = expand(rep, as.bench, as.a);

  if (as.kind == "zero" || as.kind == "band") {
    for (const Combo& c : combos) {
      const auto v = value_at(rep, as, as.a, c, as.a.variant);
      if (!v) continue;
      ++out.comparisons;
      if (as.kind == "zero") {
        if (*v != 0) fail_point(c, "expected 0, got " + fmt(*v));
      } else if (*v < as.lo || *v > as.hi) {
        fail_point(c, fmt(*v) + " outside [" + fmt(as.lo) + ", " +
                          fmt(as.hi) + "]");
      }
    }
  } else if (as.kind == "less" || as.kind == "ratio_band") {
    for (const Combo& c : combos) {
      const auto va = value_at(rep, as, as.a, c, as.a.variant);
      // b inherits the expansion point unless it pins its own fields.
      const Combo cb{is_wild(as.b.section) ? c.section : as.b.section,
                     is_wild(as.b.dataset) ? c.dataset : as.b.dataset};
      const auto vb = value_at(rep, as, as.b, cb, as.b.variant);
      // A missing side mirrors a support-matrix hole (e.g. GNNAdvisor on big
      // graphs); the comparison is skipped, not failed.
      if (!va || !vb) continue;
      ++out.comparisons;
      if (as.kind == "less") {
        if (!(*va < *vb * (1 + as.tol))) {
          fail_point(c, as.a.variant + "=" + fmt(*va) + " !< " + as.b.variant +
                            "=" + fmt(*vb));
        }
      } else {
        if (*vb == 0) {
          fail_point(c, "denominator is 0");
          continue;
        }
        const double ratio = *va / *vb;
        if (ratio < as.lo || ratio > as.hi) {
          fail_point(c, "ratio " + fmt(ratio) + " outside [" + fmt(as.lo) +
                            ", " + fmt(as.hi) + "]");
        }
      }
    }
  } else if (as.kind == "increasing" || as.kind == "decreasing") {
    if (as.series.size() < 2) {
      return outcome_fail(as, "series needs at least 2 variants");
    }
    for (const Combo& c : combos) {
      std::vector<double> vals;
      bool complete = true;
      for (const std::string& variant : as.series) {
        const auto v = value_at(rep, as, as.a, c, variant);
        if (!v) {
          complete = false;
          break;
        }
        vals.push_back(*v);
      }
      if (!complete) continue;
      ++out.comparisons;
      for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
        const bool ok = as.kind == "increasing"
                            ? vals[i + 1] >= vals[i] * (1 - as.tol)
                            : vals[i + 1] <= vals[i] * (1 + as.tol);
        if (!ok) {
          fail_point(c, "not " + as.kind + " at " + as.series[i] + "->" +
                            as.series[i + 1] + " (" + fmt(vals[i]) + " -> " +
                            fmt(vals[i + 1]) + ")");
          break;
        }
      }
    }
  } else {
    return outcome_fail(as, "unknown assertion kind \"" + as.kind + "\"");
  }

  if (out.comparisons == 0) {
    out.passed = false;
    out.detail = "no records matched (schema drift?)";
  } else if (out.passed) {
    out.detail = std::to_string(out.comparisons) + " comparison" +
                 (out.comparisons == 1 ? "" : "s") + " hold";
  }
  return out;
}

std::vector<ShapeOutcome> evaluate_all(
    const std::vector<ShapeAssertion>& assertions, const Report& rep) {
  std::vector<ShapeOutcome> out;
  out.reserve(assertions.size());
  for (const ShapeAssertion& a : assertions) out.push_back(evaluate(a, rep));
  return out;
}

}  // namespace tlp::report
