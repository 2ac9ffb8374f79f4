// Unit tests for the tlpbench reporting pipeline: JSON round-trips, the
// versioned Report schema, shape-assertion evaluation (pass and fail paths),
// and the EXPERIMENTS.md renderer (DESIGN.md §9), including its sections
// for every registered bench over the checked-in bench/baseline.json.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "report/json.hpp"
#include "report/render_md.hpp"
#include "report/report.hpp"
#include "report/shapes.hpp"
#include "suite.hpp"

namespace tlp::report {
namespace {

// --- Json ------------------------------------------------------------------

TEST(Json, DumpParseRoundTripIsIdentity) {
  Json doc = Json::object();
  doc.set("schema", kSchema);
  doc.set("pi", 3.141592653589793);
  doc.set("negative", -0.001);
  doc.set("big", 1e15);
  doc.set("flag", true);
  doc.set("nothing", Json());
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Json::object().set("k", "v"));
  doc.set("mixed", std::move(arr));

  const std::string text = doc.dump();
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed, doc);
  // Serialize -> parse -> serialize must be byte-identical (baseline diffs
  // and the --check-md gate depend on this).
  EXPECT_EQ(parsed.dump(), text);
}

TEST(Json, ObjectsPreserveInsertionOrderAndSetReplacesInPlace) {
  Json obj = Json::object();
  obj.set("z", 1);
  obj.set("a", 2);
  obj.set("z", 3);  // replaces, keeps first position
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "z");
  EXPECT_EQ(obj.members()[0].second.as_number(), 3);
  EXPECT_EQ(obj.members()[1].first, "a");
}

TEST(Json, NumbersUseShortestRoundTripForm) {
  EXPECT_EQ(json_number(42), "42");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-1.5), "-1.5");
  const double v = 2.392368572360037;
  EXPECT_EQ(Json::parse(json_number(v)).as_number(), v);
}

TEST(Json, StringEscapesRoundTrip) {
  Json doc = Json::object();
  doc.set("s", "quote \" backslash \\ newline \n tab \t");
  EXPECT_EQ(Json::parse(doc.dump()).at("s").as_string(),
            doc.at("s").as_string());
}

TEST(Json, ParseErrorsCarryByteOffsets) {
  EXPECT_THROW(Json::parse("{\"a\": }"), JsonError);
  EXPECT_THROW(Json::parse("[1, 2"), JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), JsonError);
  EXPECT_THROW(Json::parse(""), JsonError);
  try {
    Json::parse("[1, oops]");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_GE(e.offset, 0);
    EXPECT_FALSE(e.message.empty());
  }
}

TEST(Json, TypeMismatchThrows) {
  const Json num(1.0);
  EXPECT_THROW((void)num.as_string(), JsonError);
  EXPECT_THROW((void)num.at("k"), JsonError);
  const Json obj = Json::object();
  EXPECT_THROW((void)obj.at("missing"), JsonError);
  EXPECT_EQ(obj.number_or("missing", 7.5), 7.5);
}

// --- Report ----------------------------------------------------------------

Report tiny_report() {
  Report rep;
  rep.seed = 7;
  rep.git = "abc1234";
  BenchResult b;
  b.name = "table1";
  b.title = "atomics";
  b.config.set("max_edges", 1000);
  b.records.push_back(Record{"", "OH", "pull", {}});
  b.records.back().value("runtime_ms", 1.5).value("bytes_atomic", 0);
  b.records.push_back(Record{"", "OH", "push", {}});
  b.records.back().value("runtime_ms", 4.0).value("bytes_atomic", 1024);
  rep.benches.push_back(std::move(b));
  return rep;
}

TEST(Report, JsonRoundTripPreservesEverything) {
  const Report rep = tiny_report();
  const Report back = Report::from_json(Json::parse(rep.to_json().dump()));
  EXPECT_EQ(back.schema, kSchema);
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.git, "abc1234");
  ASSERT_EQ(back.benches.size(), 1u);
  EXPECT_EQ(back.benches[0].name, "table1");
  EXPECT_EQ(back.benches[0].config.at("max_edges").as_int(), 1000);
  ASSERT_EQ(back.benches[0].records.size(), 2u);
  EXPECT_EQ(back.value("table1", "", "OH", "pull", "runtime_ms"), 1.5);
  // Round-trip must be byte-stable too.
  EXPECT_EQ(back.to_json().dump(), rep.to_json().dump());
}

TEST(Report, FromJsonRejectsUnknownSchema) {
  Json doc = tiny_report().to_json();
  doc.set("schema", "tlpbench-v999");
  EXPECT_THROW(Report::from_json(doc), JsonError);
}

TEST(Report, SelectTreatsEmptyFieldsAsWildcards) {
  const Report rep = tiny_report();
  EXPECT_EQ(rep.select("table1", "", "", "").size(), 2u);
  EXPECT_EQ(rep.select("table1", "", "OH", "pull").size(), 1u);
  EXPECT_EQ(rep.select("table1", "", "XX", "").size(), 0u);
  EXPECT_FALSE(rep.value("table1", "", "OH", "pull", "no_such_metric"));
}

// --- shape assertions ------------------------------------------------------

/// A report shaped like a miniature suite run: two datasets, two variants,
/// plus a sweep series — enough to exercise every assertion kind.
Report shape_report() {
  Report rep;
  BenchResult b;
  b.name = "bench";
  for (const char* ds : {"A", "B"}) {
    const double base = ds[0] == 'A' ? 1.0 : 2.0;
    b.records.push_back(Record{"", ds, "fast", {}});
    b.records.back().value("ms", base).value("atomics", 0);
    b.records.push_back(Record{"", ds, "slow", {}});
    b.records.back().value("ms", 3 * base).value("atomics", 100);
    for (int n = 1; n <= 4; n *= 2) {
      b.records.push_back(Record{"sweep", ds, "n=" + std::to_string(n), {}});
      b.records.back().value("speedup", static_cast<double>(n));
    }
  }
  rep.benches.push_back(std::move(b));
  return rep;
}

ShapeAssertion make(const std::string& kind) {
  ShapeAssertion a;
  a.id = "test-" + kind;
  a.bench = "bench";
  a.kind = kind;
  a.metric = "ms";
  return a;
}

TEST(Shapes, LessPassesAndWildcardExpandsPerDataset) {
  ShapeAssertion a = make("less");
  a.a.variant = "fast";
  a.b.variant = "slow";
  const ShapeOutcome out = evaluate(a, shape_report());
  EXPECT_TRUE(out.passed);
  EXPECT_EQ(out.comparisons, 2);  // datasets A and B
}

TEST(Shapes, LessFailsWithPointDetail) {
  ShapeAssertion a = make("less");
  a.a.variant = "slow";  // reversed: 3 !< 1
  a.b.variant = "fast";
  const ShapeOutcome out = evaluate(a, shape_report());
  EXPECT_FALSE(out.passed);
  EXPECT_NE(out.detail.find("A"), std::string::npos);
  EXPECT_NE(out.detail.find("!<"), std::string::npos);
}

TEST(Shapes, LessToleranceAcceptsEquality) {
  ShapeAssertion a = make("less");
  a.a.variant = "fast";
  a.b.variant = "fast";  // equal values
  EXPECT_FALSE(evaluate(a, shape_report()).passed);
  a.tol = 0.001;
  EXPECT_TRUE(evaluate(a, shape_report()).passed);
}

TEST(Shapes, RatioBandChecksBothEdges) {
  ShapeAssertion a = make("ratio_band");
  a.a.variant = "slow";
  a.b.variant = "fast";  // ratio 3.0 on both datasets
  a.lo = 2;
  a.hi = 4;
  EXPECT_TRUE(evaluate(a, shape_report()).passed);
  a.hi = 2.5;
  EXPECT_FALSE(evaluate(a, shape_report()).passed);
  a.lo = 3.5;
  a.hi = 10;
  EXPECT_FALSE(evaluate(a, shape_report()).passed);
}

TEST(Shapes, ZeroAndBand) {
  ShapeAssertion z = make("zero");
  z.metric = "atomics";
  z.a.variant = "fast";
  EXPECT_TRUE(evaluate(z, shape_report()).passed);
  z.a.variant = "slow";
  EXPECT_FALSE(evaluate(z, shape_report()).passed);

  ShapeAssertion b = make("band");
  b.metric = "atomics";
  b.a.variant = "slow";
  b.lo = 1;
  b.hi = 1e9;
  EXPECT_TRUE(evaluate(b, shape_report()).passed);
  b.hi = 50;
  EXPECT_FALSE(evaluate(b, shape_report()).passed);
}

TEST(Shapes, IncreasingSeriesWithTolerance) {
  ShapeAssertion a = make("increasing");
  a.metric = "speedup";
  a.a.section = "sweep";
  a.series = {"n=1", "n=2", "n=4"};
  EXPECT_TRUE(evaluate(a, shape_report()).passed);
  EXPECT_EQ(evaluate(a, shape_report()).comparisons, 2);  // two datasets

  a.kind = "decreasing";
  EXPECT_FALSE(evaluate(a, shape_report()).passed);
  a.series = {"n=4", "n=2", "n=1"};
  EXPECT_TRUE(evaluate(a, shape_report()).passed);
}

TEST(Shapes, MissingSideSkipsButNoMatchesFails) {
  // A missing record on one side mirrors a support-matrix hole: skipped.
  ShapeAssertion a = make("less");
  a.a.variant = "fast";
  a.a.dataset = "A";
  a.b.variant = "nonexistent";
  const ShapeOutcome skipped = evaluate(a, shape_report());
  EXPECT_FALSE(skipped.passed);  // ... but zero comparisons overall = failure
  EXPECT_NE(skipped.detail.find("no records matched"), std::string::npos);

  // Unknown metric everywhere: schema drift must fail loudly, not pass.
  ShapeAssertion m = make("less");
  m.metric = "renamed_metric";
  m.a.variant = "fast";
  m.b.variant = "slow";
  EXPECT_FALSE(evaluate(m, shape_report()).passed);

  // Unknown bench fails with a message.
  ShapeAssertion nb = make("less");
  nb.bench = "gone";
  EXPECT_FALSE(evaluate(nb, shape_report()).passed);

  // Unknown kind fails rather than silently passing.
  ShapeAssertion nk = make("frobnicate");
  EXPECT_FALSE(evaluate(nk, shape_report()).passed);
}

TEST(Shapes, AssertionsParseFromBaselineJson) {
  const std::string text = R"({
    "assertions": [
      {"id": "x", "bench": "bench", "kind": "less", "metric": "ms",
       "a": {"variant": "fast"}, "b": {"variant": "slow"},
       "tol": 0.05, "note": "fast wins"},
      {"id": "y", "bench": "bench", "kind": "increasing",
       "metric": "speedup", "a": {"section": "sweep"},
       "series": ["n=1", "n=2", "n=4"]}
    ]
  })";
  const auto assertions = assertions_from_json(Json::parse(text));
  ASSERT_EQ(assertions.size(), 2u);
  EXPECT_EQ(assertions[0].id, "x");
  EXPECT_EQ(assertions[0].tol, 0.05);
  EXPECT_EQ(assertions[1].series.size(), 3u);
  const auto outcomes = evaluate_all(assertions, shape_report());
  EXPECT_TRUE(outcomes[0].passed);
  EXPECT_TRUE(outcomes[1].passed);
}

// --- renderer --------------------------------------------------------------

TEST(RenderMd, DeterministicWithProvenanceAndShapeSummary) {
  Report rep = shape_report();
  rep.git = "cafe123";
  ShapeAssertion a = make("less");
  a.a.variant = "fast";
  a.b.variant = "slow";
  a.note = "fast beats slow";
  const auto outcomes = evaluate_all({a}, rep);
  const std::string md = render_experiments_md(rep, outcomes);
  EXPECT_EQ(md, render_experiments_md(rep, outcomes));  // byte-stable
  EXPECT_NE(md.find("Generated file — do not edit"), std::string::npos);
  EXPECT_NE(md.find("test-less"), std::string::npos);
  EXPECT_NE(md.find("fast beats slow"), std::string::npos);
  EXPECT_NE(md.find("cafe123"), std::string::npos);
  EXPECT_NE(md.find("tlpbench-v1"), std::string::npos);
}

// What tlpbench prints after a bench is exactly that bench's section of the
// document, and no bench can be registered without one.
TEST(RenderMd, EveryRegisteredBenchSectionAppearsVerbatimInTheDocument) {
  std::ifstream in(std::string(TLP_SOURCE_DIR) + "/bench/baseline.json");
  ASSERT_TRUE(in) << "cannot read bench/baseline.json";
  std::ostringstream text;
  text << in.rdbuf();
  const Report rep = Report::from_json(Json::parse(text.str()).at("results"));
  const std::string md = render_experiments_md(rep, {});
  for (const bench::BenchDef* def : bench::all_benches()) {
    ASSERT_NE(rep.find_bench(def->name), nullptr) << def->name;
    const std::string section = render_bench_md(rep, def->name);
    EXPECT_FALSE(section.empty()) << def->name;
    EXPECT_NE(md.find(section), std::string::npos) << def->name;
  }
  EXPECT_EQ(render_bench_md(rep, "no_such_bench"), "");
}

}  // namespace
}  // namespace tlp::report
