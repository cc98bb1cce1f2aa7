// Pareto type II (Lomax) service distribution, supported on [0, inf): survival function
// (1 + x/scale)^{-shape}: a genuinely heavy (polynomial, not exponential) tail.
// Mean = scale/(shape-1); we require shape > 2 so the variance is finite
// (SCV = shape/(shape-2) > 1 always).

#ifndef QNET_DIST_PARETO_H_
#define QNET_DIST_PARETO_H_

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "qnet/dist/distribution.h"
#include "qnet/support/check.h"
#include "qnet/support/logspace.h"

namespace qnet {

class Pareto : public ServiceDistribution {
 public:
  Pareto(double shape, double scale) : shape_(shape), scale_(scale) {
    QNET_CHECK(shape > 2.0, "Pareto needs shape > 2 for finite variance; shape=", shape);
    QNET_CHECK(scale > 0.0, "Pareto scale must be positive: ", scale);
  }

  double shape() const { return shape_; }
  double scale() const { return scale_; }

  double Sample(Rng& rng) const override {
    // Inverse CDF: scale * ((1 - u)^{-1/shape} - 1).
    return scale_ * std::expm1(-std::log1p(-rng.Uniform()) / shape_);
  }

  double LogPdf(double x) const override {
    if (x < 0.0) {
      return kNegInf;
    }
    return std::log(shape_ / scale_) - (shape_ + 1.0) * std::log1p(x / scale_);
  }

  double Cdf(double x) const override {
    if (x <= 0.0) {
      return 0.0;
    }
    return -std::expm1(-shape_ * std::log1p(x / scale_));
  }

  double Mean() const override { return scale_ / (shape_ - 1.0); }

  double Variance() const override {
    return scale_ * scale_ * shape_ /
           ((shape_ - 1.0) * (shape_ - 1.0) * (shape_ - 2.0));
  }

  std::unique_ptr<ServiceDistribution> Clone() const override {
    return std::make_unique<Pareto>(shape_, scale_);
  }

  std::string Describe() const override {
    std::ostringstream os;
    os << "pareto(shape=" << shape_ << ", scale=" << scale_ << ")";
    return os.str();
  }

 private:
  double shape_;
  double scale_;
};

}  // namespace qnet

#endif  // QNET_DIST_PARETO_H_
