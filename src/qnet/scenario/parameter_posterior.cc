#include "qnet/scenario/parameter_posterior.h"

#include <span>
#include <utility>

#include "qnet/support/check.h"
#include "qnet/support/math.h"

namespace qnet {

ParameterPosterior::ParameterPosterior(std::vector<std::vector<double>> draws)
    : draws_(std::move(draws)) {
  QNET_CHECK(!draws_.empty(), "parameter posterior needs at least one draw");
  for (const auto& draw : draws_) {
    QNET_CHECK(draw.size() == draws_[0].size(), "ragged draw matrix");
    QNET_CHECK(draw.size() >= 2, "draws need lambda plus at least one queue rate");
    for (const double rate : draw) {
      QNET_CHECK(rate > 0.0, "nonpositive rate in posterior draw");
    }
  }
}

ParameterPosterior ParameterPosterior::FromSummary(const PosteriorSummary& summary) {
  QNET_CHECK(summary.NumSamples() > 0, "posterior summary holds no draws");
  std::vector<std::vector<double>> draws;
  draws.reserve(summary.NumSamples());
  for (std::size_t i = 0; i < summary.NumSamples(); ++i) {
    draws.push_back(summary.RateDraw(i));
  }
  return ParameterPosterior(std::move(draws));
}

ParameterPosterior ParameterPosterior::FromStem(const StemResult& stem,
                                                std::size_t burn_in) {
  const std::size_t iterates = stem.rate_trace.NumIterations();
  QNET_CHECK(burn_in < iterates, "burn-in ", burn_in, " consumes the whole rate trace (",
             iterates, " iterates)");
  std::vector<std::vector<double>> draws;
  draws.reserve(iterates - burn_in);
  for (std::size_t t = burn_in; t < iterates; ++t) {
    const std::span<const double> row = stem.rate_trace.Row(t);
    draws.emplace_back(row.begin(), row.end());
  }
  return ParameterPosterior(std::move(draws));
}

ParameterPosterior ParameterPosterior::FromPoint(std::vector<double> rates) {
  std::vector<std::vector<double>> draws;
  draws.push_back(std::move(rates));
  return ParameterPosterior(std::move(draws));
}

int ParameterPosterior::NumQueues() const { return static_cast<int>(draws_[0].size()); }

const std::vector<double>& ParameterPosterior::Draw(std::size_t i) const {
  QNET_CHECK(i < draws_.size(), "draw index ", i, " out of range (", draws_.size(), ")");
  return draws_[i];
}

std::vector<double> ParameterPosterior::MeanRates() const {
  std::vector<double> means(draws_[0].size(), 0.0);
  for (const auto& draw : draws_) {
    for (std::size_t q = 0; q < draw.size(); ++q) {
      means[q] += draw[q];
    }
  }
  for (double& m : means) {
    m /= static_cast<double>(draws_.size());
  }
  return means;
}

std::vector<double> ParameterPosterior::RateQuantile(double q) const {
  std::vector<double> out(draws_[0].size(), 0.0);
  std::vector<double> column(draws_.size(), 0.0);
  for (std::size_t queue = 0; queue < out.size(); ++queue) {
    for (std::size_t d = 0; d < draws_.size(); ++d) {
      column[d] = draws_[d][queue];
    }
    out[queue] = Quantile(column, q);
  }
  return out;
}

}  // namespace qnet
