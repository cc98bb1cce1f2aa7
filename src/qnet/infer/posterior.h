// Posterior summaries over Gibbs samples: per-queue mean/quantile estimates of service and
// waiting times with credible intervals. This turns the point estimates of the paper into
// interval estimates — a capability the graphical-models viewpoint gives for free and the
// classical analyses cannot provide. Feed it one GibbsSampler chain's post-burn-in states
// (Accumulate after each Sweep); ParameterPosterior::FromSummary turns its draws into
// scenario-engine input.

#ifndef QNET_INFER_POSTERIOR_H_
#define QNET_INFER_POSTERIOR_H_

#include <cstddef>
#include <vector>

#include "qnet/model/event.h"

namespace qnet {

// Accumulates per-sweep per-queue mean service/wait series plus a per-queue tail-latency
// (response-quantile) series — the posterior estimate of e.g. p95 latency from a sparse
// trace.
class PosteriorSummary {
 public:
  explicit PosteriorSummary(int num_queues, double tail_quantile = 0.95);

  void Accumulate(const EventLog& state);

  // Appends another summary's draws after this one's (chain-order pooling). Deterministic:
  // merging the same summaries in the same order always yields identical series, so a
  // pool of chains is independent of the order in which the chains finished.
  void Merge(const PosteriorSummary& other);

  std::size_t NumSamples() const { return num_samples_; }
  // Posterior means.
  std::vector<double> MeanService() const;
  std::vector<double> MeanWait() const;
  // Posterior quantiles (per queue), e.g. 0.05/0.95 for a 90% credible interval.
  std::vector<double> ServiceQuantile(double q) const;
  std::vector<double> WaitQuantile(double q) const;
  // Posterior mean of the per-queue tail (response quantile chosen at construction).
  std::vector<double> MeanTailResponse() const;
  // Raw per-queue series (one value per accumulated sweep) for diagnostics.
  const std::vector<double>& ServiceSeries(int queue) const;
  const std::vector<double>& WaitSeries(int queue) const;

  // --- Parameter draws -------------------------------------------------------------------
  // Draw i is the rate vector implied by the i-th accumulated sweep: rates[q] is the
  // reciprocal of that sweep's per-queue mean service time — the complete-data MLE
  // theta-hat(E_i) of the imputed event set, with index 0 the arrival rate lambda (queue
  // 0's "service" is the interarrival process). Draws are indexed in accumulation order
  // (after Merge: chain order) and carry the usual MCMC autocorrelation — thin before
  // treating them as independent. By construction 1/RateDraw(i) agrees with
  // ServiceSeries(q)[i], so draw moments and quantiles are consistent with
  // MeanService()/ServiceQuantile() on the reciprocal scale; tests pin this.
  std::vector<double> RateDraw(std::size_t draw) const;

 private:
  std::size_t num_samples_ = 0;
  double tail_quantile_;
  std::vector<std::vector<double>> service_series_;  // [queue][sweep]
  std::vector<std::vector<double>> wait_series_;
  std::vector<std::vector<double>> tail_series_;
};

}  // namespace qnet

#endif  // QNET_INFER_POSTERIOR_H_
