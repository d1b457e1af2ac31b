// Unit tests for src/util: contracts, RNG, CSV, strings,
// ASCII plotting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stayaway {
namespace {

// ---------------------------------------------------------------- check
TEST(Check, RequireThrowsPreconditionError) {
  EXPECT_THROW(SA_REQUIRE(false, "boom"), PreconditionError);
}

TEST(Check, EnsureThrowsInvariantError) {
  EXPECT_THROW(SA_ENSURE(false, "boom"), InvariantError);
}

TEST(Check, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(SA_REQUIRE(true, "ok"));
  EXPECT_NO_THROW(SA_ENSURE(true, "ok"));
}

TEST(Check, MessageContainsContext) {
  try {
    SA_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("custom context"), std::string::npos);
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng
TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformDegenerateRangeReturnsBound) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(rng.uniform(2.5, 2.5), 2.5);
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(6);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_THROW(rng.index(0), PreconditionError);
}

TEST(Rng, NormalMeanApproximatelyCorrect) {
  Rng rng(8);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.normal(5.0, 2.0);
  EXPECT_NEAR(acc / n, 5.0, 0.1);
}

TEST(Rng, NormalZeroSigmaIsMean) {
  Rng rng(9);
  EXPECT_DOUBLE_EQ(rng.normal(1.25, 0.0), 1.25);
}

TEST(Rng, ExponentialPositive) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.exponential(2.0), 0.0);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_THROW(rng.chance(1.5), PreconditionError);
}

TEST(Rng, ChanceFrequencyTracksProbability) {
  Rng rng(12);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(13);
  Rng child = parent.fork();
  // Child stream should not match a same-seed sibling's continuation.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.uniform() == child.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

// -------------------------------------------------------------- strings
TEST(Strings, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5, 4), "1.5");
  EXPECT_EQ(format_double(2.0, 4), "2");
  EXPECT_EQ(format_double(0.001, 6), "0.001");
  EXPECT_EQ(format_double(-0.0, 3), "0");
}

TEST(Strings, ParseDoubleMatchesTheWholeString) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("1.5", v));
  EXPECT_EQ(v, 1.5);
  EXPECT_TRUE(parse_double("-2e-3", v));
  EXPECT_EQ(v, -2e-3);
  EXPECT_TRUE(parse_double("inf", v));
  EXPECT_TRUE(std::isinf(v));
  EXPECT_TRUE(parse_double("nan", v));
  EXPECT_TRUE(std::isnan(v));
  // Underflow parses to the subnormal format_double_exact wrote.
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_TRUE(parse_double(format_double_exact(tiny), v));
  EXPECT_EQ(v, tiny);
  EXPECT_TRUE(parse_double("1e-320", v));
  EXPECT_EQ(v, 1e-320);
  v = 7.0;
  for (const char* bad : {"", " 1", "1 ", "1x", "x", "1e400", "-1e400"}) {
    EXPECT_FALSE(parse_double(bad, v)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 7.0);  // untouched on failure
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
}

// ------------------------------------------------------------------ csv
TEST(Csv, WriteAndParseRoundTrip) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  w.row(std::vector<double>{1.5, 2.0});
  w.row(std::vector<double>{-0.25, 1e-3});

  std::istringstream in(out.str());
  auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  auto vals = csv_row_to_doubles(rows[1]);
  EXPECT_DOUBLE_EQ(vals[0], 1.5);
  EXPECT_DOUBLE_EQ(vals[1], 2.0);
  vals = csv_row_to_doubles(rows[2]);
  EXPECT_DOUBLE_EQ(vals[0], -0.25);
  EXPECT_DOUBLE_EQ(vals[1], 0.001);
}

TEST(Csv, NonNumericCellThrows) {
  EXPECT_THROW(csv_row_to_doubles({"1.0", "abc"}), PreconditionError);
  EXPECT_THROW(csv_row_to_doubles({"1.0x"}), PreconditionError);
}

TEST(Csv, SkipsEmptyLines) {
  std::istringstream in("a,b\n\n1,2\n");
  auto rows = parse_csv(in);
  EXPECT_EQ(rows.size(), 2u);
}

// ----------------------------------------------------------- ascii plot
TEST(AsciiPlot, LinesContainGlyphAndLegend) {
  std::vector<double> s{0.0, 1.0, 2.0, 3.0};
  std::string plot = plot_lines({s}, {"ramp"});
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("ramp"), std::string::npos);
}

TEST(AsciiPlot, EmptySeriesHandled) {
  std::string plot = plot_lines({{}}, {"empty"});
  EXPECT_NE(plot.find("no data"), std::string::npos);
}

TEST(AsciiPlot, ScatterPlacesGroups) {
  ScatterGroup a{"a", '.', {{0.0, 0.0}, {1.0, 1.0}}};
  ScatterGroup b{"b", '#', {{0.5, 0.5}}};
  std::string plot = plot_scatter({a, b});
  EXPECT_NE(plot.find('.'), std::string::npos);
  EXPECT_NE(plot.find('#'), std::string::npos);
}

TEST(AsciiPlot, TooSmallAreaRejected) {
  PlotOptions opts;
  opts.width = 2;
  EXPECT_THROW(plot_lines({{1.0}}, {"x"}, opts), PreconditionError);
}

TEST(AsciiPlot, NonFiniteValuesSkipped) {
  std::vector<double> s{0.0, std::nan(""), 2.0};
  EXPECT_NO_THROW(plot_lines({s}, {"with-nan"}));
}

}  // namespace
}  // namespace stayaway
