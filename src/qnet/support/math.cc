#include "qnet/support/math.h"

#include <algorithm>
#include <cmath>

#include "qnet/support/check.h"

namespace qnet {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStat::Mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStat::Variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::Stddev() const { return std::sqrt(Variance()); }

double RunningStat::Min() const {
  QNET_CHECK(count_ > 0, "Min() of empty RunningStat");
  return min_;
}

double RunningStat::Max() const {
  QNET_CHECK(count_ > 0, "Max() of empty RunningStat");
  return max_;
}

SummaryStats Summarize(std::span<const double> xs) {
  SummaryStats out;
  if (xs.empty()) {
    return out;
  }
  RunningStat rs;
  for (double x : xs) {
    rs.Add(x);
  }
  out.count = rs.Count();
  out.mean = rs.Mean();
  out.variance = rs.Variance();
  out.stddev = rs.Stddev();
  out.min = rs.Min();
  out.max = rs.Max();
  out.median = Median(xs);
  out.q25 = Quantile(xs, 0.25);
  out.q75 = Quantile(xs, 0.75);
  return out;
}

double Mean(std::span<const double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return sum / static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  RunningStat rs;
  for (double x : xs) {
    rs.Add(x);
  }
  return rs.Variance();
}

double Quantile(std::span<const double> xs, double q) {
  QNET_CHECK(!xs.empty(), "Quantile of empty sample");
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, q);
}

double QuantileSorted(std::span<const double> sorted, double q) {
  QNET_CHECK(!sorted.empty(), "Quantile of empty sample");
  QNET_CHECK(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
  if (sorted.size() == 1) {
    return sorted[0];
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) {
    return sorted.back();
  }
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double Median(std::span<const double> xs) { return Quantile(xs, 0.5); }

double KsStatistic(std::vector<double> samples, const std::function<double(double)>& cdf) {
  QNET_CHECK(!samples.empty(), "KS statistic of empty sample");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max(d, std::max(std::abs(f - lo), std::abs(hi - f)));
  }
  return d;
}

double KsPValue(double d, std::size_t n) {
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  const double lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
  // Q(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    sum += sign * term;
    if (term < 1e-12) {
      break;
    }
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

double MaxFrequencyDeviation(std::span<const std::size_t> counts,
                             std::span<const double> expected_probs) {
  QNET_CHECK(counts.size() == expected_probs.size(), "bin count mismatch");
  std::size_t total = 0;
  for (std::size_t c : counts) {
    total += c;
  }
  QNET_CHECK(total > 0, "no samples");
  double worst = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double freq = static_cast<double>(counts[i]) / static_cast<double>(total);
    worst = std::max(worst, std::abs(freq - expected_probs[i]));
  }
  return worst;
}

}  // namespace qnet
