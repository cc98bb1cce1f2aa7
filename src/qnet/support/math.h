// Small statistics toolbox: streaming moments, quantiles, and the
// Kolmogorov-Smirnov machinery used by the distribution-identity property tests.

#ifndef QNET_SUPPORT_MATH_H_
#define QNET_SUPPORT_MATH_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace qnet {

// Welford streaming mean/variance accumulator.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  std::size_t Count() const { return count_; }
  double Mean() const;
  // Unbiased sample variance (n-1 denominator); 0 for fewer than two samples.
  double Variance() const;
  double Stddev() const;
  double Min() const;
  double Max() const;
  double Sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

struct SummaryStats {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double q25 = 0.0;
  double q75 = 0.0;
};

SummaryStats Summarize(std::span<const double> xs);

double Mean(std::span<const double> xs);
double Variance(std::span<const double> xs);

// Linear-interpolation quantile of an unsorted sample; q in [0, 1].
double Quantile(std::span<const double> xs, double q);
// Same interpolation on an already-sorted sample; allocation-free (Quantile copies and
// sorts, then delegates here — so sorting in place once and calling this repeatedly is
// bit-identical to repeated Quantile calls).
double QuantileSorted(std::span<const double> sorted, double q);
double Median(std::span<const double> xs);

// One-sample Kolmogorov-Smirnov statistic against a CDF.
double KsStatistic(std::vector<double> samples, const std::function<double(double)>& cdf);
// Asymptotic KS p-value (Numerical Recipes form with the Stephens small-n correction).
double KsPValue(double d, std::size_t n);

// Two-sided chi-square style helper used by categorical-sampler tests: returns the maximum
// absolute deviation between empirical and expected bin frequencies.
double MaxFrequencyDeviation(std::span<const std::size_t> counts,
                             std::span<const double> expected_probs);

}  // namespace qnet

#endif  // QNET_SUPPORT_MATH_H_
