// A bag of posterior parameter draws (per-queue rate vectors, index 0 = lambda) that the
// scenario engine pushes through what-if cells, so every predicted metric carries
// posterior uncertainty instead of a point estimate.
//
// Sources:
//  * FromSummary — one draw per accumulated Gibbs sweep via PosteriorSummary::RateDraw,
//    in accumulation order (a GibbsSampler chain at fixed rates feeding a summary);
//  * FromStem — the post-burn-in StEM iterates theta_t of StemResult::rate_trace, which
//    are the sampler's stationary parameter draws (approximate posterior samples up to
//    the StEM perturbation);
//  * FromPoint — a single rate vector, for point-estimate forecasting (e.g. the
//    per-window streaming estimates, which carry no within-window uncertainty).
//
// Draws keep their source order and autocorrelation; the engine thins deterministically
// when it uses fewer draws than are stored.

#ifndef QNET_SCENARIO_PARAMETER_POSTERIOR_H_
#define QNET_SCENARIO_PARAMETER_POSTERIOR_H_

#include <cstddef>
#include <vector>

#include "qnet/infer/posterior.h"
#include "qnet/infer/stem.h"

namespace qnet {

class ParameterPosterior {
 public:
  static ParameterPosterior FromSummary(const PosteriorSummary& summary);
  // Uses rate_trace rows burn_in..; CHECK-fails unless at least one iterate survives.
  static ParameterPosterior FromStem(const StemResult& stem, std::size_t burn_in);
  static ParameterPosterior FromPoint(std::vector<double> rates);

  std::size_t NumDraws() const { return draws_.size(); }
  int NumQueues() const;
  const std::vector<double>& Draw(std::size_t i) const;

  // Posterior mean rates across draws.
  std::vector<double> MeanRates() const;
  // Per-queue rate quantile across draws (q in [0, 1]).
  std::vector<double> RateQuantile(double q) const;

 private:
  explicit ParameterPosterior(std::vector<std::vector<double>> draws);

  std::vector<std::vector<double>> draws_;  // [draw][queue]
};

}  // namespace qnet

#endif  // QNET_SCENARIO_PARAMETER_POSTERIOR_H_
