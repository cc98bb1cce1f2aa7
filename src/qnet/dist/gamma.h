// Gamma service distribution in shape/rate parameterization (mean = shape/rate). Shape < 1
// gives decreasing densities (burstier than exponential); large shapes approach
// deterministic service.

#ifndef QNET_DIST_GAMMA_H_
#define QNET_DIST_GAMMA_H_

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "qnet/dist/distribution.h"
#include "qnet/support/check.h"
#include "qnet/support/logspace.h"

namespace qnet {

// Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a), a > 0, x >= 0.
// Series expansion for x < a + 1, Lentz continued fraction otherwise.
double RegularizedLowerGamma(double a, double x);

class GammaDist : public ServiceDistribution {
 public:
  GammaDist(double shape, double rate) : shape_(shape), rate_(rate) {
    QNET_CHECK(shape > 0.0 && rate > 0.0, "Gamma parameters must be positive; shape=", shape,
               " rate=", rate);
  }

  double shape() const { return shape_; }
  double rate() const { return rate_; }

  double Sample(Rng& rng) const override { return rng.Gamma(shape_, 1.0 / rate_); }

  double LogPdf(double x) const override {
    if (x < 0.0 || (x == 0.0 && shape_ < 1.0)) {
      return kNegInf;
    }
    if (x == 0.0) {
      return shape_ == 1.0 ? std::log(rate_) : kNegInf;
    }
    return shape_ * std::log(rate_) - std::lgamma(shape_) + (shape_ - 1.0) * std::log(x) -
           rate_ * x;
  }

  double Cdf(double x) const override {
    if (x <= 0.0) {
      return 0.0;
    }
    return RegularizedLowerGamma(shape_, rate_ * x);
  }

  double Mean() const override { return shape_ / rate_; }
  double Variance() const override { return shape_ / (rate_ * rate_); }

  std::unique_ptr<ServiceDistribution> Clone() const override {
    return std::make_unique<GammaDist>(shape_, rate_);
  }

  std::string Describe() const override {
    std::ostringstream os;
    os << "gamma(shape=" << shape_ << ", rate=" << rate_ << ")";
    return os.str();
  }

 private:
  double shape_;
  double rate_;
};

}  // namespace qnet

#endif  // QNET_DIST_GAMMA_H_
