#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace bng {
namespace {

TEST(Percentile, EmptyIsZero) { EXPECT_EQ(percentile({}, 50), 0.0); }

TEST(Percentile, SingleElement) { EXPECT_EQ(percentile({7.0}, 90), 7.0); }

TEST(Percentile, MedianOfOddCount) { EXPECT_EQ(percentile({3, 1, 2}, 50), 2.0); }

TEST(Percentile, MedianInterpolates) { EXPECT_EQ(percentile({1, 2, 3, 4}, 50), 2.5); }

TEST(Percentile, Extremes) {
  std::vector<double> v{5, 1, 9, 3};
  EXPECT_EQ(percentile(v, 0), 1.0);
  EXPECT_EQ(percentile(v, 100), 9.0);
}

TEST(Percentile, P90OfMostlyZeros) {
  std::vector<double> v(100, 0.0);
  v[0] = 100.0;  // one outlier
  EXPECT_EQ(percentile(v, 90), 0.0);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_EQ(percentile({10, 0, 5}, 50), 5.0);
}

TEST(Percentile, MatchesFullSortOnRandomInputs) {
  // Oracle: the sort-then-index implementation the selection replaced.
  const auto by_sort = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> v(1 + rng.next_below(60));
    const bool ties = trial % 2 == 0;
    for (double& x : v)
      x = ties ? static_cast<double>(rng.next_below(5)) : rng.uniform() * 100.0;
    for (const double p : {0.0, 12.5, 25.0, 50.0, 90.0, 99.0, 100.0})
      ASSERT_EQ(percentile(v, p), by_sort(v, p)) << "trial=" << trial << " p=" << p;
  }
}

TEST(MeanStddev, BasicValues) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), 2.138, 0.001);
}

TEST(MeanStddev, EmptyAndSingleton) {
  EXPECT_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(LinearFitTest, PerfectLine) {
  std::vector<double> x{1, 2, 3, 4}, y{3, 5, 7, 9};  // y = 1 + 2x
  auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LinearFitTest, NoisyLineHighR2) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.02);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(LinearFitTest, ConstantYGivesZeroSlope) {
  std::vector<double> x{1, 2, 3}, y{4, 4, 4};
  auto fit = linear_fit(x, y);
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_EQ(fit.intercept, 4.0);
}

TEST(ExponentialFitTest, RecoversExponent) {
  std::vector<double> x, y;
  for (int i = 1; i <= 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * std::exp(-0.27 * i));
  }
  auto fit = exponential_fit(x, y);
  EXPECT_NEAR(fit.slope, -0.27, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(SummaryTest, FieldsConsistent) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  auto s = summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_LT(s.p25, s.p50);
  EXPECT_LT(s.p50, s.p75);
  EXPECT_LT(s.p75, s.p90);
}

TEST(SummaryTest, FormatContainsFields) {
  auto s = summarize({1.0, 2.0, 3.0});
  auto text = format_summary(s);
  EXPECT_NE(text.find("n=3"), std::string::npos);
  EXPECT_NE(text.find("p50"), std::string::npos);
}

}  // namespace
}  // namespace bng
