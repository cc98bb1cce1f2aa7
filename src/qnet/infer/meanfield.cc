#include "qnet/infer/meanfield.h"

#include <algorithm>
#include <limits>

#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

void MeanFieldStats::Reset(int num_queues) {
  const auto size = static_cast<std::size_t>(num_queues);
  counts.assign(size, 0);
  resp_sum.assign(size, 0.0);
  resp_count.assign(size, 0);
  observed_responses = 0;
  t_min = std::numeric_limits<double>::infinity();
  t_max = -std::numeric_limits<double>::infinity();
  last_entry = 0.0;
  entry_observed = false;
}

void MeanFieldEstimator::Fit(const MeanFieldStats& stats, double arrival_time_origin,
                             MeanFieldFit& out) {
  ScopedSpan fit_span(SpanStage::kMeanFieldFit);
  Close(stats, arrival_time_origin, out);
}

void MeanFieldEstimator::Fit(const EventLog& truth, const Observation& obs,
                             double arrival_time_origin, MeanFieldFit& out) {
  ScopedSpan fit_span(SpanStage::kMeanFieldFit);
  stats_.Reset(truth.NumQueues());
  const EventId num_events = static_cast<EventId>(truth.NumEvents());
  for (EventId e = 0; e < num_events; ++e) {
    const Event& ev = truth.AtUnchecked(e);
    stats_.Add(ev.queue, ev.arrival, ev.departure, obs.ArrivalObserved(e),
               obs.DepartureObserved(e));
  }
  Close(stats_, arrival_time_origin, out);
}

void MeanFieldEstimator::Close(const MeanFieldStats& stats, double arrival_time_origin,
                               MeanFieldFit& out) {
  FitCounters::Get().meanfield_fits->Increment();
  const std::size_t num_queues = stats.counts.size();
  out.rates.assign(num_queues, options_.fallback_rate);
  out.mean_wait.assign(num_queues, 0.0);
  out.fitted.assign(num_queues, 0);
  out.observed_responses = stats.observed_responses;

  // lambda is fitted only from an observed entry; without one the caller keeps its own.
  if (stats.entry_observed) {
    const double n_tasks = static_cast<double>(stats.NumTasks());
    if (stats.last_entry - arrival_time_origin > 0.0) {
      out.rates[0] = n_tasks / (stats.last_entry - arrival_time_origin);
      out.fitted[0] = 1;
    } else if (stats.last_entry > 0.0) {
      // Degenerate origin (at/after the last entry): absolute anchor, like the M-step.
      out.rates[0] = n_tasks / stats.last_entry;
      out.fitted[0] = 1;
    }
  }

  // Busy span: independent of the lambda anchoring so the service-side fit is identical
  // bits whether the caller anchors lambda absolutely or window-locally. With fewer than
  // two distinct observed times there is no span to turn counts into rates, so no queue
  // is fitted (fallback rates; the caller substitutes its chain's).
  if (!(stats.t_max > stats.t_min)) {
    return;
  }
  const double span = std::max(stats.t_max - stats.t_min, options_.min_span);

  for (std::size_t q = 1; q < num_queues; ++q) {
    if (stats.counts[q] == 0) {
      continue;  // fallback rate; fitted stays 0 so the caller can substitute its chain
    }
    out.fitted[q] = 1;
    const double lambda_q = static_cast<double>(stats.counts[q]) / span;
    if (stats.resp_count[q] > 0) {
      const double rbar =
          std::max(stats.resp_sum[q] / static_cast<double>(stats.resp_count[q]),
                   options_.min_span);
      // Invert R = 1/(mu - lambda): strictly above lambda_q, so always stable.
      const double mu = lambda_q + 1.0 / rbar;
      out.rates[q] = mu;
      out.mean_wait[q] = std::max(rbar - 1.0 / mu, 0.0);
    } else {
      // Events but no measured response: only lambda_q is pinned; place mu on the right
      // scale via the assumed utilization (warm starts only need scale-correctness).
      const double mu = lambda_q / options_.assumed_utilization;
      out.rates[q] = mu;
      out.mean_wait[q] = MeanFieldWait(lambda_q, mu, options_.max_utilization);
    }
  }
}

double MeanFieldWait(double lambda, double mu, double max_utilization) {
  if (mu <= 0.0 || lambda <= 0.0) {
    return 0.0;
  }
  const double lam = std::min(lambda, max_utilization * mu);
  return lam / (mu * (mu - lam));
}

PooledCorrection CorrectCrossLaneShare(double pooled_rate, double pooled_wait,
                                       double lambda_q) {
  PooledCorrection out{pooled_rate, pooled_wait};
  if (pooled_rate <= 0.0 || lambda_q < 0.0) {
    return out;
  }
  const double response = 1.0 / pooled_rate + std::max(pooled_wait, 0.0);
  if (!(response > 0.0)) {
    return out;
  }
  out.rate = lambda_q + 1.0 / response;
  out.wait = response - 1.0 / out.rate;
  return out;
}

double ModelCrossLaneServiceRate(double pooled_rate, double lambda_q,
                                 std::span<const double> lane_shares,
                                 std::span<const double> lane_weights,
                                 std::size_t iterations, double min_service_fraction) {
  if (pooled_rate <= 0.0 || lambda_q <= 0.0 || lane_shares.empty() ||
      lane_shares.size() != lane_weights.size()) {
    return pooled_rate;
  }
  double weight_sum = 0.0;
  for (const double w : lane_weights) {
    weight_sum += std::max(w, 0.0);
  }
  if (weight_sum <= 0.0) {
    return pooled_rate;
  }
  const double biased_service = 1.0 / pooled_rate;
  double service = biased_service;
  for (std::size_t it = 0; it < iterations; ++it) {
    const double mu = 1.0 / service;
    double lane_wait = 0.0;
    for (std::size_t l = 0; l < lane_shares.size(); ++l) {
      const double share = std::clamp(lane_shares[l], 0.0, 1.0);
      lane_wait += std::max(lane_weights[l], 0.0) / weight_sum *
                   MeanFieldWait(share * lambda_q, mu);
    }
    const double cross_share = std::max(MeanFieldWait(lambda_q, mu) - lane_wait, 0.0);
    const double target =
        std::clamp(biased_service - cross_share, min_service_fraction * biased_service,
                   biased_service);
    // Damped: near saturation the undamped map overshoots and oscillates.
    service = 0.5 * (service + target);
  }
  return 1.0 / service;
}

}  // namespace qnet
