// Unit tests for the statistics toolbox.

#include "qnet/support/math.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "qnet/support/check.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

TEST(RunningStat, MatchesDirectMoments) {
  const std::vector<double> xs = {1.0, 4.0, -2.0, 8.0, 3.5, 0.0};
  RunningStat rs;
  for (double x : xs) {
    rs.Add(x);
  }
  EXPECT_EQ(rs.Count(), xs.size());
  EXPECT_NEAR(rs.Mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(rs.Variance(), Variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.Min(), -2.0);
  EXPECT_DOUBLE_EQ(rs.Max(), 8.0);
  EXPECT_NEAR(rs.Sum(), 14.5, 1e-12);
}

TEST(RunningStat, MergeEqualsSinglePass) {
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(rng.Normal(2.0, 3.0));
  }
  RunningStat all;
  RunningStat a;
  RunningStat b;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    all.Add(xs[i]);
    (i < 200 ? a : b).Add(xs[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-10);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.Min(), all.Min());
  EXPECT_DOUBLE_EQ(a.Max(), all.Max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.Add(1.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.Count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.Count(), 1u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 1.0);
}

TEST(Quantile, InterpolatesCorrectly) {
  const std::vector<double> xs = {3.0, 1.0, 2.0, 4.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0 / 3.0), 2.0);
  EXPECT_THROW(Quantile(std::vector<double>{}, 0.5), Error);
  EXPECT_THROW(Quantile(xs, 1.5), Error);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> xs = {42.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 42.0);
}

TEST(Summarize, PopulatesAllFields) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const SummaryStats s = Summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.variance, 2.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.q25, 2.0);
  EXPECT_DOUBLE_EQ(s.q75, 4.0);
}

TEST(KsStatistic, PerfectFitIsSmall) {
  // Deterministic uniform grid against the uniform CDF.
  std::vector<double> xs;
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back((static_cast<double>(i) + 0.5) / static_cast<double>(n));
  }
  const double d = KsStatistic(xs, [](double x) { return x; });
  EXPECT_LT(d, 1.0 / static_cast<double>(n));
}

TEST(KsStatistic, DetectsWrongDistribution) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(rng.Uniform());
  }
  // Test against Exp(1): should reject decisively.
  const double d = KsStatistic(xs, [](double x) { return 1.0 - std::exp(-x); });
  EXPECT_LT(KsPValue(d, xs.size()), 1e-6);
  // And against the true uniform CDF: should not reject.
  const double d2 = KsStatistic(xs, [](double x) { return std::clamp(x, 0.0, 1.0); });
  EXPECT_GT(KsPValue(d2, xs.size()), 1e-3);
}

TEST(KsPValue, MonotoneInStatistic) {
  EXPECT_GT(KsPValue(0.01, 100), KsPValue(0.2, 100));
  EXPECT_GT(KsPValue(0.2, 10), KsPValue(0.2, 1000));
  EXPECT_LE(KsPValue(0.9, 1000), 1e-10);
}

TEST(MaxFrequencyDeviation, DetectsBias) {
  const std::vector<std::size_t> counts = {600, 400};
  const std::vector<double> fair = {0.5, 0.5};
  EXPECT_NEAR(MaxFrequencyDeviation(counts, fair), 0.1, 1e-12);
  EXPECT_THROW(MaxFrequencyDeviation(counts, std::vector<double>{1.0}), Error);
}

}  // namespace
}  // namespace qnet
