// Tests for the xoshiro256++-based RNG and its samplers. Statistical checks use fixed seeds
// and generous tolerances so they are deterministic and non-flaky.

#include "qnet/support/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "qnet/support/check.h"
#include "qnet/support/math.h"

namespace qnet {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitIntervalWithCorrectMoments) {
  Rng rng(42);
  RunningStat rs;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    rs.Add(u);
  }
  EXPECT_NEAR(rs.Mean(), 0.5, 0.01);
  EXPECT_NEAR(rs.Variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntIsUnbiased) {
  Rng rng(9);
  std::vector<std::size_t> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.UniformInt(7)];
  }
  const std::vector<double> expected(7, 1.0 / 7.0);
  EXPECT_LT(MaxFrequencyDeviation(counts, expected), 0.01);
  EXPECT_THROW(rng.UniformInt(0), Error);
}

TEST(Rng, ExponentialMoments) {
  Rng rng(7);
  RunningStat rs;
  for (int i = 0; i < 200000; ++i) {
    rs.Add(rng.Exponential(4.0));
  }
  EXPECT_NEAR(rs.Mean(), 0.25, 0.005);
  EXPECT_NEAR(rs.Variance(), 0.0625, 0.005);
}

TEST(Rng, ExponentialKsAgainstTrueCdf) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(rng.Exponential(2.0));
  }
  const double d = KsStatistic(xs, [](double x) { return 1.0 - std::exp(-2.0 * x); });
  EXPECT_GT(KsPValue(d, xs.size()), 1e-3);
}

TEST(Rng, TruncatedExponentialStaysInBounds) {
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.TruncatedExponential(3.0, 1.5, 2.0);
    ASSERT_GE(x, 1.5);
    ASSERT_LE(x, 2.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStat rs;
  for (int i = 0; i < 200000; ++i) {
    rs.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(rs.Mean(), 5.0, 0.05);
  EXPECT_NEAR(rs.Stddev(), 2.0, 0.05);
}

TEST(Rng, GammaMomentsAcrossShapes) {
  Rng rng(19);
  for (double shape : {0.5, 1.0, 2.5, 9.0}) {
    RunningStat rs;
    for (int i = 0; i < 100000; ++i) {
      rs.Add(rng.Gamma(shape, 2.0));  // scale 2 => mean 2*shape, var 4*shape
    }
    EXPECT_NEAR(rs.Mean(), 2.0 * shape, 0.12 * shape + 0.05) << "shape=" << shape;
    EXPECT_NEAR(rs.Variance(), 4.0 * shape, 0.5 * shape + 0.2) << "shape=" << shape;
  }
}

TEST(Rng, LogNormalMoments) {
  Rng rng(23);
  RunningStat rs;
  for (int i = 0; i < 200000; ++i) {
    rs.Add(rng.LogNormal(0.0, 0.5));
  }
  EXPECT_NEAR(rs.Mean(), std::exp(0.125), 0.01);
}

TEST(Rng, PoissonMomentsSmallAndLargeMean) {
  Rng rng(29);
  for (double mean : {0.5, 5.0, 80.0}) {
    RunningStat rs;
    for (int i = 0; i < 50000; ++i) {
      rs.Add(static_cast<double>(rng.Poisson(mean)));
    }
    EXPECT_NEAR(rs.Mean(), mean, 0.05 * mean + 0.05) << "mean=" << mean;
    EXPECT_NEAR(rs.Variance(), mean, 0.15 * mean + 0.1) << "mean=" << mean;
  }
}

TEST(Rng, CategoricalFrequenciesMatchWeights) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<std::size_t> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  const std::vector<double> expected = {0.1, 0.3, 0.6};
  EXPECT_LT(MaxFrequencyDeviation(counts, expected), 0.01);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.Categorical(std::vector<double>{}), Error);
  EXPECT_THROW(rng.Categorical(std::vector<double>{0.0, 0.0}), Error);
  EXPECT_THROW(rng.Categorical(std::vector<double>{1.0, -1.0}), Error);
}

TEST(Rng, CategoricalFromLogsMatchesLinear) {
  Rng rng_a(37);
  Rng rng_b(37);
  const std::vector<double> weights = {0.2, 0.5, 0.3};
  std::vector<double> log_weights;
  for (double w : weights) {
    log_weights.push_back(std::log(w) + 500.0);  // Shared offset must not matter.
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng_a.Categorical(weights), rng_b.CategoricalFromLogs(log_weights));
  }
}

TEST(Rng, SampleWithoutReplacementProperties) {
  Rng rng(41);
  const auto picked = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(picked.size(), 30u);
  EXPECT_TRUE(std::is_sorted(picked.begin(), picked.end()));
  const std::set<std::size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t idx : picked) {
    EXPECT_LT(idx, 100u);
  }
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 5).size(), 5u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), Error);
}

TEST(Rng, SampleWithoutReplacementIsUniform) {
  Rng rng(43);
  std::vector<std::size_t> counts(10, 0);
  const int reps = 20000;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t idx : rng.SampleWithoutReplacement(10, 3)) {
      ++counts[idx];
    }
  }
  const std::vector<double> expected(10, 0.1);
  EXPECT_LT(MaxFrequencyDeviation(counts, expected), 0.01);
}

TEST(Rng, ForkProducesDistinctStream) {
  Rng parent(53);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += parent.NextU64() == child.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace qnet
