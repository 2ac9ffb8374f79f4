// Unit tests for src/common: rng, stats, formatting, table, CLI, checks.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace tlp {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(TLP_CHECK(1 == 2), CheckError);
  try {
    TLP_CHECK_MSG(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, RangeBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto x = r.next_range(5, 17);
    EXPECT_GE(x, 5);
    EXPECT_LT(x, 17);
  }
}

TEST(Rng, NextBelowUniformish) {
  Rng r(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[static_cast<std::size_t>(r.next_below(10))]++;
  for (const int c : counts) {
    EXPECT_GT(c, n / 10 * 0.9);
    EXPECT_LT(c, n / 10 * 1.1);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(3);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.next_normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SplitIndependentStreams) {
  Rng a(5);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Stats, MeanGeomeanStddev) {
  const std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt((1 + 4 + 16) / 3.0 - 49.0 / 9.0), 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW(geomean(xs), CheckError);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

// Edge cases of the documented inclusive-interpolation rule (stats.hpp):
// empty and single-sample inputs, exact endpoints, and hand-computed
// interior interpolations — the rule SloReport's p50/p99 inherit.
TEST(Stats, PercentileEdgeCases) {
  // Empty input reports 0 for every q, including the endpoints.
  EXPECT_DOUBLE_EQ(percentile({}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 1.0), 0.0);
  // A single sample is every percentile of itself.
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.37), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 1.0), 7.5);
  // q = 1.0 must return the maximum exactly — position q*(n-1) is the last
  // order statistic with zero fractional part, not an out-of-range read.
  EXPECT_DOUBLE_EQ(percentile({2, 9, 4}, 1.0), 9.0);
  // Interior interpolation, hand-computed: sorted {10, 20, 40}, position
  // 0.25 * 2 = 0.5 -> halfway between 10 and 20.
  EXPECT_DOUBLE_EQ(percentile({40, 10, 20}, 0.25), 15.0);
  // p99 over 1..100: position 0.99 * 99 = 98.01 -> 99 + 0.01 * (100 - 99).
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.99), 99.01);
  // Out-of-range q is a caller bug, not a clamp.
  EXPECT_THROW(percentile({1.0}, -0.1), CheckError);
  EXPECT_THROW(percentile({1.0}, 1.1), CheckError);
}

TEST(Stats, GiniUniformZeroSkewedHigh) {
  EXPECT_NEAR(gini({1, 1, 1, 1}), 0.0, 1e-12);
  EXPECT_GT(gini({0, 0, 0, 100}), 0.7);
}

TEST(Format, HumanCount) {
  EXPECT_EQ(human_count(950), "950");
  EXPECT_EQ(human_count(1500), "1.5K");
  EXPECT_EQ(human_count(2400000), "2.4M");
  EXPECT_EQ(human_count(1.2e9), "1.2B");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512B");
  EXPECT_EQ(human_bytes(2048), "2.00KB");
  EXPECT_EQ(human_bytes(3.5 * 1024 * 1024), "3.50MB");
}

TEST(Format, FixedAndPct) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(pct(0.411), "41.1%");
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

/// The message of the UsageError reject_unread() throws, or "" if none.
std::string unread_error(const Args& args) {
  try {
    args.reject_unread();
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, ParsesNamedAndPositional) {
  // Note: a bare boolean flag must not be directly followed by a positional
  // argument (the parser would read it as the flag's value).
  const char* argv[] = {"prog", "pos1", "--alpha", "2.5", "--name=x",
                        "--flag"};
  Args args(6, argv);
  // Nothing read yet: the first passed flag in sorted order is reported.
  EXPECT_EQ(unread_error(args), "unknown flag --alpha");
  EXPECT_DOUBLE_EQ(args.get_double_checked("alpha", 0), 2.5);
  EXPECT_EQ(args.get("name", ""), "x");
  // Names read but not passed are fine.
  EXPECT_EQ(args.get_int_checked("missing", 7), 7);
  // One unread flag is named; positionals never count as flags.
  EXPECT_EQ(unread_error(args), "unknown flag --flag");
  EXPECT_TRUE(args.get_bool("flag", false));
  // Every flag is read: the unconsumed positional is named.
  EXPECT_EQ(unread_error(args), "unexpected argument \"pos1\"");
  EXPECT_EQ(args.positional(0, "run"), "pos1");
  EXPECT_EQ(args.positional(1, "none"), "none");
  EXPECT_EQ(unread_error(args), "");
}

TEST(Cli, HasAloneCountsAsARead) {
  const char* argv[] = {"prog", "--only", "table1", "--list"};
  Args args(4, argv);
  EXPECT_TRUE(args.has("only"));
  EXPECT_FALSE(args.has("absent"));
  EXPECT_EQ(unread_error(args), "unknown flag --list");
  EXPECT_TRUE(args.has("list"));
  EXPECT_EQ(unread_error(args), "");
}

TEST(Cli, GetChoiceTakesAListBuiltAtRunTime) {
  const char* argv[] = {"prog", "--model", "GXN", "--system=dgl"};
  Args args(4, argv);
  const std::vector<std::string> systems{"tlpgnn", "dgl"};
  EXPECT_EQ(args.get_choice("system", "tlpgnn", systems), "dgl");
  EXPECT_EQ(args.get_choice("absent", "tlpgnn", systems), "tlpgnn");
  try {
    (void)args.get_choice("model", "GCN", {"GCN", "GAT"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "flag --model: unknown value \"GXN\" (valid: GCN, GAT)");
  }
  // A rejected value was still read: the error names the value, not the
  // flag as unknown.
  EXPECT_EQ(unread_error(args), "");
}

TEST(Cli, GetBoolAcceptsTheEightSpellingsAndRejectsAnyOther) {
  const char* argv[] = {"prog", "--a=true", "--b=1",  "--c=yes", "--d=on",
                        "--e=false", "--f=0", "--g=no", "--h=off",
                        "--list",   "foo"};
  Args args(11, argv);
  for (const char* name : {"a", "b", "c", "d"})
    EXPECT_TRUE(args.get_bool(name, false)) << name;
  for (const char* name : {"e", "f", "g", "h"})
    EXPECT_FALSE(args.get_bool(name, true)) << name;
  EXPECT_TRUE(args.get_bool("absent", true));
  // `--list foo` reads "foo" as the value: a usage error naming the flag,
  // not a silent false.
  try {
    (void)args.get_bool("list", false);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--list"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("\"foo\""), std::string::npos);
  }
}

}  // namespace
}  // namespace tlp
