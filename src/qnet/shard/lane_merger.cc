#include "qnet/shard/lane_merger.h"

#include <algorithm>
#include <utility>

#include "qnet/infer/meanfield.h"
#include "qnet/support/check.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

LaneMerger::LaneMerger(std::size_t lanes, int num_queues, bool window_local_arrival_rate,
                       bool cross_lane_bias_correction)
    : lanes_(lanes),
      num_queues_(num_queues),
      window_local_(window_local_arrival_rate),
      bias_correction_(cross_lane_bias_correction) {
  QNET_CHECK(lanes_ > 0, "LaneMerger needs a positive lane count");
  QNET_CHECK(num_queues_ >= 2, "LaneMerger needs at least the arrival queue plus one");
}

void LaneMerger::ExpectWindow(const WindowSpanTracker::SpanDecision& decision) {
  PendingWindow& window = board_.emplace_back();
  window.decision = decision;
  window.fits.resize(lanes_);
}

void LaneMerger::Post(std::size_t lane, LaneWindowFit fit) {
  const auto window = std::find_if(board_.begin(), board_.end(), [&](const PendingWindow& w) {
    return w.answers < lanes_;
  });
  QNET_CHECK(window != board_.end() && window->answers == lane, "lane ", lane,
             " posted out of (window, lane) order");
  window->fits[lane] = std::move(fit);
  if (++window->answers == lanes_) {
    max_merge_lag_seconds_ =
        std::max(max_merge_lag_seconds_, window->since_expected.ElapsedSeconds());
  }
}

bool LaneMerger::Pop(PooledWindow& out, bool /*block*/) {
  if (board_.empty() || board_.front().answers < lanes_) {
    return false;
  }
  {
    ScopedSpan span(SpanStage::kLaneMerge);
    out.estimate = Pool(board_.front());
  }
  out.window_index = board_.front().decision.window_index;
  out.replaces_previous = board_.front().decision.merged_tail_tasks > 0;
  board_.pop_front();
  return true;
}

WindowEstimate LaneMerger::Pool(const PendingWindow& window) const {
  const WindowSpanTracker::SpanDecision& decision = window.decision;
  WindowEstimate estimate;
  estimate.t0 = decision.t0;
  estimate.t1 = decision.t1;
  estimate.tasks = decision.count;
  estimate.merged_tail_tasks = decision.merged_tail_tasks;
  estimate.window_local_arrival_rate = window_local_;

  // Single contributing lane: verbatim copy (see header — the bit-exactness anchor).
  const LaneWindowFit* only = nullptr;
  std::size_t contributing = 0;
  for (const LaneWindowFit& fit : window.fits) {
    if (fit.tasks > 0) {
      ++contributing;
      only = &fit;
    }
  }
  if (contributing == 1 && only->fitted) {
    estimate.rates = only->rates;
    estimate.mean_wait = only->mean_wait;
    estimate.degraded = only->degraded;
    estimate.fit_iterations = only->fit_iterations;
    // One lane held every record, so no other lane's tasks queued here: nothing to
    // correct (and K = 1 must stay bit-exact).
    return estimate;
  }

  // Lambda anchor of the empirical fallback for unfittable lanes: the same origin their
  // fit would have used.
  const double origin = window_local_ ? decision.t0 : 0.0;
  const double span = std::max(decision.t1 - origin, 1e-12);

  estimate.rates.assign(static_cast<std::size_t>(num_queues_), 0.0);
  double weight_sum = 0.0;
  bool any_wait = false;
  double lambda = 0.0;
  // Lane-index order: the pooled value is a pure function of the fits.
  for (const LaneWindowFit& fit : window.fits) {
    if (fit.tasks == 0) {
      continue;  // empty lane window: contributes nothing
    }
    const double weight = static_cast<double>(fit.tasks);
    if (!fit.fitted) {
      // Skipped fit: the lane's share of the arrival process is still real load.
      lambda += weight / span;
      continue;
    }
    lambda += fit.rates[0];
    weight_sum += weight;
    estimate.degraded = estimate.degraded || fit.degraded;
    estimate.fit_iterations += fit.fit_iterations;
    for (std::size_t q = 1; q < fit.rates.size(); ++q) {
      estimate.rates[q] += weight * fit.rates[q];
    }
    if (!fit.mean_wait.empty()) {
      any_wait = true;
    }
  }
  // Every lane sat this window out (each sub-log missed some queue): there is no
  // service-rate estimate to pool, and emitting zeros would silently poison every
  // downstream consumer (the plain estimator fails loudly on such a window, inside
  // StEM's M-step). Reduce the lane count or widen the windows.
  QNET_CHECK(weight_sum > 0.0, "window [", decision.t0, ", ", decision.t1,
             ") has no fittable lane sub-log (every lane's share missed a queue)");
  estimate.rates[0] = lambda;
  for (std::size_t q = 1; q < estimate.rates.size(); ++q) {
    estimate.rates[q] /= weight_sum;
  }
  if (any_wait && weight_sum > 0.0) {
    estimate.mean_wait.assign(static_cast<std::size_t>(num_queues_), 0.0);
    for (const LaneWindowFit& fit : window.fits) {
      if (fit.tasks == 0 || !fit.fitted || fit.mean_wait.empty()) {
        continue;
      }
      const double weight = static_cast<double>(fit.tasks);
      for (std::size_t q = 0; q < fit.mean_wait.size(); ++q) {
        estimate.mean_wait[q] += weight * fit.mean_wait[q];
      }
    }
    for (double& wait : estimate.mean_wait) {
      wait /= weight_sum;
    }
  }

  if (bias_correction_) {
    // Each lane fitted a hash-thinned sub-log, attributing the queueing caused by the
    // OTHER lanes' tasks to service — the pooled service estimate inflates with
    // utilization. Re-invert per queue from the TRUE event arrival rate lambda_q (exact:
    // counts are structure) via the response invariant when waits were pooled, or the
    // thinned-wait model fallback otherwise. See infer/meanfield.h.
    const double window_span = std::max(decision.t1 - decision.t0, 1e-12);
    std::vector<double> lane_shares;
    std::vector<double> lane_weights;
    lane_shares.reserve(window.fits.size());
    lane_weights.reserve(window.fits.size());
    for (std::size_t q = 1; q < estimate.rates.size(); ++q) {
      std::size_t total_count = 0;
      for (const LaneWindowFit& fit : window.fits) {
        if (fit.queue_counts.size() > q) {
          total_count += fit.queue_counts[q];
        }
      }
      if (total_count == 0) {
        continue;
      }
      const double lambda_q = static_cast<double>(total_count) / window_span;
      if (!estimate.mean_wait.empty()) {
        const PooledCorrection corrected =
            CorrectCrossLaneShare(estimate.rates[q], estimate.mean_wait[q], lambda_q);
        estimate.rates[q] = corrected.rate;
        estimate.mean_wait[q] = corrected.wait;
      } else {
        lane_shares.clear();
        lane_weights.clear();
        for (const LaneWindowFit& fit : window.fits) {
          if (fit.tasks == 0 || !fit.fitted || fit.queue_counts.size() <= q) {
            continue;
          }
          lane_shares.push_back(static_cast<double>(fit.queue_counts[q]) /
                                static_cast<double>(total_count));
          lane_weights.push_back(static_cast<double>(fit.tasks));
        }
        estimate.rates[q] =
            ModelCrossLaneServiceRate(estimate.rates[q], lambda_q, lane_shares,
                                      lane_weights);
      }
    }
  }
  return estimate;
}

}  // namespace qnet
