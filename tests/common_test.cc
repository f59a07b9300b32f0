#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/kernels.h"
#include "dmt/common/math.h"
#include "dmt/common/parse.h"
#include "dmt/common/random.h"
#include "dmt/common/sanitize.h"
#include "dmt/common/stats.h"
#include "dmt/common/table.h"
#include "dmt/common/types.h"

namespace dmt {
namespace {

TEST(MathTest, SigmoidMatchesClosedForm) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-12);
  EXPECT_NEAR(Sigmoid(-2.0), 1.0 / (1.0 + std::exp(2.0)), 1e-12);
}

TEST(MathTest, SigmoidIsStableAtExtremes) {
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(MathTest, LogSumExpMatchesNaiveOnSmallValues) {
  std::vector<double> z = {0.1, 0.2, 0.3};
  double naive = std::log(std::exp(0.1) + std::exp(0.2) + std::exp(0.3));
  EXPECT_NEAR(LogSumExp(z), naive, 1e-12);
}

TEST(MathTest, LogSumExpStableForLargeValues) {
  std::vector<double> z = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(z), 1000.0 + std::log(2.0), 1e-9);
}

TEST(MathTest, SoftmaxSumsToOneAndPreservesOrder) {
  std::vector<double> z = {1.0, 3.0, 2.0};
  SoftmaxInPlace(z);
  EXPECT_NEAR(z[0] + z[1] + z[2], 1.0, 1e-12);
  EXPECT_GT(z[1], z[2]);
  EXPECT_GT(z[2], z[0]);
}

TEST(MathTest, SafeLogIsFiniteAtZeroAndOne) {
  EXPECT_TRUE(std::isfinite(SafeLog(0.0)));
  EXPECT_TRUE(std::isfinite(SafeLog(1.0)));
}

TEST(MathTest, DotAndNorm) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(SquaredNorm(a), 14.0);
}

TEST(RunningStatsTest, MeanAndVarianceMatchClosedForm) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.0, 1e-12);  // population variance
  EXPECT_NEAR(stats.stddev(), 2.0, 1e-12);
}

TEST(RunningStatsTest, EmptyAndSingleValue) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(SlidingWindowStatsTest, EvictsOldValues) {
  SlidingWindowStats window(3);
  window.Add(1.0);
  window.Add(2.0);
  window.Add(3.0);
  EXPECT_DOUBLE_EQ(window.mean(), 2.0);
  window.Add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(window.mean(), 5.0);
  EXPECT_EQ(window.count(), 3u);
}

TEST(RngTest, SeedsAreReproducible) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(1);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(2);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Categorical(weights), 1);
}

TEST(BatchTest, RowsRoundTrip) {
  Batch batch(2);
  batch.Add(std::vector<double>{1.0, 2.0}, 0);
  batch.Add(std::vector<double>{3.0, 4.0}, 1);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch.row(1)[0], 3.0);
  EXPECT_EQ(batch.label(0), 0);
  batch.mutable_row(0)[0] = 9.0;
  EXPECT_DOUBLE_EQ(batch.row(0)[0], 9.0);
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable table({"model", "f1"});
  table.AddRow({"DMT", MeanStdCell(0.781, 0.104)});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("DMT"), std::string::npos);
  EXPECT_NE(text.find("0.78 +- 0.10"), std::string::npos);
}

TEST(TableTest, PadsColumnsAndRendersMissingTrailingCellsEmpty) {
  TextTable table({"a", "bb"});
  table.AddRow({"long", "x"});
  table.AddRow({"y"});
  EXPECT_EQ(table.ToString(),
            "a     bb\n"
            "--------\n"
            "long  x \n"
            "y       \n");
}

TEST(TableTest, MeanStdCellRoundsToRequestedDecimals) {
  EXPECT_EQ(MeanStdCell(0.5, 0.25), "0.50 +- 0.25");
  EXPECT_EQ(MeanStdCell(12.3456, 0.04, 3), "12.346 +- 0.040");
  EXPECT_EQ(MeanStdCell(7.6, 0.4, 0), "8 +- 0");
}

// The strtod-only ParseDouble that the from_chars fast path must match
// bit for bit: whole field consumed, no empty input, no leading blank.
std::optional<double> StrtodParse(const std::string& text) {
  if (text.empty() || text[0] == ' ' || text[0] == '\t') return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

void ExpectParsesLikeStrtod(const std::string& text) {
  const std::optional<double> expected = StrtodParse(text);
  const std::optional<double> actual =
      ParseDouble(text, /*require_finite=*/false);
  ASSERT_EQ(actual.has_value(), expected.has_value()) << "'" << text << "'";
  if (expected.has_value()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*actual),
              std::bit_cast<std::uint64_t>(*expected))
        << "'" << text << "'";
  }
  // The finite-only flavour refuses exactly the non-finite values.
  const bool finite = expected.has_value() && std::isfinite(*expected);
  EXPECT_EQ(ParseDouble(text).has_value(), finite) << "'" << text << "'";
}

TEST(ParseDoubleTest, MatchesStrtodOnEdgeCases) {
  for (const char* text :
       {"+1", "0x10", "0X1p3", "1e400", "-1e400", "1e-400", "4.9e-324",
        "2.4703282292062327e-324", "2.2250738585072011e-308", "nan", "-nan",
        "nan(12)", "NaN", "Infinity", "-inf", "infinit", "1e", "1e+", ".5",
        "5.", ".", "-", "--1", "+-1", "1.2.3", "0.1", "-0", "+0", "1,5",
        " 1", "\t1", "\n1", "1 ", "", "0.99999999995",
        "179769313486231570000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000"
        "0000.0",
        "0.30000000000000000000000000000000000000001"}) {
    ExpectParsesLikeStrtod(text);
  }
}

TEST(ParseDoubleTest, MatchesStrtodOnPrintedDoubles) {
  Rng rng(11);
  char buffer[64];
  for (int i = 0; i < 20000; ++i) {
    const double value = std::bit_cast<double>(rng());
    for (const char* format : {"%.17g", "%.10g", "%.4f", "%a"}) {
      std::snprintf(buffer, sizeof(buffer), format, value);
      ExpectParsesLikeStrtod(buffer);
    }
    std::snprintf(buffer, sizeof(buffer), "%.6f", rng.Uniform());
    ExpectParsesLikeStrtod(buffer);
  }
}

TEST(MathTest, ClampProbKeepsProbabilitiesInsideTheOpenInterval) {
  EXPECT_EQ(ClampProb(0.0), kProbEpsilon);
  EXPECT_EQ(ClampProb(-3.0), kProbEpsilon);
  EXPECT_EQ(ClampProb(1.0), 1.0 - kProbEpsilon);
  EXPECT_EQ(ClampProb(7.0), 1.0 - kProbEpsilon);
  EXPECT_EQ(ClampProb(0.25), 0.25);
  EXPECT_EQ(SafeLog(0.0), std::log(kProbEpsilon));
}

TEST(MathTest, AddInPlaceAddsElementwise) {
  std::vector<double> v = {1.0, -2.0, 0.5};
  const std::vector<double> w = {0.25, 2.0, -0.5};
  AddInPlace(v, w);
  EXPECT_EQ(v, (std::vector<double>{1.25, 0.0, 0.0}));
}

TEST(KernelSumTest, SameBitsAsCopyThenAddAtEveryLength) {
  // ProposeFromBuckets writes each bucket prefix as row p = row p-1 + slot;
  // that must equal copying the previous row and adding the slot in place.
  Rng rng(5);
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform() * 1e3 - 5e2;
      b[i] = rng.Uniform() * 1e-3;
    }
    std::vector<double> out(n, -1.0);
    kernels::Sum(a.data(), b.data(), out.data(), n);
    std::vector<double> reference = a;
    kernels::Add(reference.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(reference[i]))
          << "n " << n << " i " << i;
    }
  }
}

TEST(RowIsFiniteTest, RejectsAnyNanOrInfinity) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(RowIsFinite(std::vector<double>{}));
  EXPECT_TRUE(RowIsFinite(std::vector<double>{0.0, -0.0, 1e308, 5e-324}));
  EXPECT_FALSE(RowIsFinite(std::vector<double>{0.0, nan}));
  EXPECT_FALSE(RowIsFinite(std::vector<double>{inf, 0.0}));
  EXPECT_FALSE(RowIsFinite(std::vector<double>{1.0, -inf, 2.0}));
}

TEST(ParseU64Test, AcceptsDecimalDigitsUpToTheMaximum) {
  EXPECT_EQ(ParseU64("0"), 0u);
  EXPECT_EQ(ParseU64("42"), 42u);
  EXPECT_EQ(ParseU64("007"), 7u);  // leading zeros are decimal, not octal
  EXPECT_EQ(ParseU64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64Test, RejectsSignsWhitespaceAndTrailingGarbage) {
  for (const std::string_view text :
       {std::string_view(""), std::string_view("-1"), std::string_view("+1"),
        std::string_view(" 1"), std::string_view("\t1"),
        std::string_view("1 "), std::string_view("1\n"),
        std::string_view("12x"), std::string_view("1e3"),
        std::string_view("0x10"), std::string_view("1.0"),
        std::string_view("1,000"), std::string_view("1\0" "2", 3)}) {
    EXPECT_FALSE(ParseU64(text).has_value())
        << "'" << std::string(text) << "'";
  }
}

TEST(ParseU64Test, RejectsValuesAboveTheMaximum) {
  EXPECT_FALSE(ParseU64("18446744073709551616").has_value());
  EXPECT_FALSE(ParseU64("99999999999999999999999").has_value());
}

}  // namespace
}  // namespace dmt
