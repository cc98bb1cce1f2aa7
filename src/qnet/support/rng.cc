#include "qnet/support/rng.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "qnet/support/check.h"
#include "qnet/support/logspace.h"

namespace qnet {

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64Step(sm);
  }
  // Guard against the (measure-zero but fatal) all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  QNET_CHECK(n > 0, "UniformInt requires n > 0");
  const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::TruncatedExponential(double rate, double lo, double hi) {
  QNET_CHECK(rate > 0.0, "TruncatedExponential rate must be positive: ", rate);
  QNET_CHECK(lo < hi, "TruncatedExponential needs lo < hi; lo=", lo, " hi=", hi);
  return SampleExpLinear(-rate, lo, hi, Uniform());
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  for (;;) {
    const double u = Uniform(-1.0, 1.0);
    const double v = Uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      const double factor = std::sqrt(-2.0 * std::log(s) / s);
      cached_normal_ = v * factor;
      have_cached_normal_ = true;
      return u * factor;
    }
  }
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Gamma(double shape, double scale) {
  QNET_CHECK(shape > 0.0 && scale > 0.0, "Gamma parameters must be positive");
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
    const double u = std::max(Uniform(), 1e-300);
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return scale * d * v;
    }
    if (std::log(std::max(u, 1e-300)) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

std::uint64_t Rng::Poisson(double mean) {
  QNET_CHECK(mean >= 0.0, "Poisson mean must be nonnegative: ", mean);
  if (mean == 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = Uniform();
    while (product > limit) {
      ++count;
      product *= Uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction; adequate for workload generation.
  const double draw = Normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

std::size_t Rng::CategoricalFromLogs(std::span<const double> log_weights) {
  QNET_CHECK(!log_weights.empty(), "Categorical over empty support");
  const double log_z = LogSumExp(log_weights);
  QNET_CHECK(log_z > kNegInf, "all categorical log-weights are -inf");
  double u = Uniform();
  for (std::size_t i = 0; i < log_weights.size(); ++i) {
    u -= std::exp(log_weights[i] - log_z);
    if (u < 0.0) {
      return i;
    }
  }
  return log_weights.size() - 1;
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n, std::size_t k) {
  QNET_CHECK(k <= n, "cannot sample ", k, " of ", n, " without replacement");
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  // Floyd's algorithm: for j in [n-k, n), draw t in [0, j]; insert t or j on collision.
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(UniformInt(j + 1));
    if (!chosen.insert(t).second) {
      chosen.insert(j);
    }
  }
  std::vector<std::size_t> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace qnet
