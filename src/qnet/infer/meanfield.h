// Mean-field (variational) window fits — the sampler-free fast path.
//
// Following Perez & Casale's mean-field/variational treatment of partially observed
// queueing networks (arXiv:1807.08673), each queue is decoupled into an independent
// M/M/1 node whose stationary response time R = 1/(mu - lambda) closes the moment
// equations. The estimator inverts that closure from a handful of per-window sufficient
// statistics (MeanFieldStats): per-queue event counts, the sums and counts of directly
// measured responses, the earliest and latest observed time, and the last observed
// entry. The closure reads only those:
//
//   lambda     = n_tasks / (last observed entry - origin)         (same anchor as StEM)
//   lambda_q   = n_q / busy span                                  (counts are structure,
//                                                                  known exactly)
//   mu_q       = lambda_q + 1 / Rbar_q                            (R = 1/(mu - lambda))
//   W_q        = Rbar_q - 1/mu_q                                  (R = W + S)
//
// where Rbar_q averages the responses of events whose arrival AND departure are both
// observed (task-level sampling observes complete tasks, so every sampled task
// contributes its full per-queue responses). No Gibbs sweeps, no RNG, no latent-time
// imputation: the fit is a pure function of the observed times and the structure.
//
// Every statistic is a per-event quantity, and an event's contribution depends only on
// its own task, so the statistics accumulate one event at a time from any source that
// visits the events in the same order. Fit(log, obs) accumulates over a built window's
// events; the streaming lanes accumulate straight from their TaskRecords, as each record
// arrives (MeanFieldRecordFold in stream/window_assembler.h), and never build a log for
// a sampler-free window. Both paths then run the one closure, Fit(stats), so they agree
// bit for bit by construction: only the response sums depend on the order, and the
// record fold sums them in the builder's numbering of the window's sorted records,
// whatever order the records arrived in. Both are O(events) with zero allocations once
// the statistics and the output vectors are warm.
//
// Compared to StEM the estimate is biased by the M/M/1 closure (exact for Poisson-fed
// exponential queues, approximate otherwise) and noisier at low observation fractions
// (it reads only directly measured responses, never imputes). Its three consumers
// tolerate that: warm starts only need scale-correct rates, degraded-mode estimates are
// flagged as such, and the cross-lane bias correction needs moments, not samples.
//
// Cross-lane bias correction (shard/lane_merger.h): a lane fitting its hash-thinned
// sub-log attributes the queueing caused by OTHER lanes' tasks to service, inflating the
// pooled service time S_b by the unexplained waiting share. Responses are physical
// times, so the decomposition error cancels in the sum S_b + W_b: the pooled mean
// response R = S_b + W_b is invariant under lane thinning. CorrectCrossLaneShare
// re-inverts the mean-field closure from that invariant — mu = lambda_q + 1/R — which
// needs no model of the thinned waiting process at all. When a pooled fit carries no
// waiting-time estimate the model-based fallback ModelCrossLaneServiceRate solves the
// fixed point S_b = S + W(lambda_q, 1/S) - sum_l w_l W(p_l lambda_q, 1/S) instead.

#ifndef QNET_INFER_MEANFIELD_H_
#define QNET_INFER_MEANFIELD_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/obs/observation.h"

namespace qnet {

struct MeanFieldOptions {
  // Rate assigned to queues with no events in the window (the caller typically
  // substitutes its warm-start chain's previous rates for such queues).
  double fallback_rate = 1.0;
  // A queue with events but no fully-observed response pins only lambda_q; assume this
  // utilization to place mu_q = lambda_q / assumed_utilization on the right scale.
  double assumed_utilization = 0.5;
  // Floor on time spans (guards single-event windows).
  double min_span = 1e-9;
  // Utilization clamp for the M/M/1 waiting-time formula (keeps predicted waits finite
  // when a measured lambda_q crowds mu_q).
  double max_utilization = 0.95;
};

// The mean-field closure's sufficient statistics for one window, accumulated one event
// at a time (see the file comment). Reset keeps every vector's capacity, so a reused
// accumulator is allocation-free once warm.
struct MeanFieldStats {
  // Events per queue, EventLog::PerQueueCount() of the window: counts[0] counts the
  // initial events, one per task.
  std::vector<std::size_t> counts;
  // Per queue: sum and number of directly measured responses (arrival AND departure
  // observed), summed in event order.
  std::vector<double> resp_sum;
  std::vector<std::size_t> resp_count;
  std::size_t observed_responses = 0;
  // Earliest / latest observed time in the window: the busy span lambda_q is measured
  // against.
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = -std::numeric_limits<double>::infinity();
  // Latest observed system entry time (0 until one is observed).
  double last_entry = 0.0;
  bool entry_observed = false;

  void Reset(int num_queues);

  // Accumulates one event. Queue 0 (the virtual arrival queue) holds a task's initial
  // event, whose departure IS the task's system entry time; its arrival is not a
  // measurement and is never read.
  void Add(int queue, double arrival, double departure, bool arrival_observed,
           bool departure_observed) {
    const auto q = static_cast<std::size_t>(queue);
    ++counts[q];
    if (q == 0) {
      if (departure_observed) {
        entry_observed = true;
        last_entry = std::max(last_entry, departure);
        t_min = std::min(t_min, departure);
        t_max = std::max(t_max, departure);
      }
      return;
    }
    if (arrival_observed) {
      t_min = std::min(t_min, arrival);
      t_max = std::max(t_max, arrival);
    }
    if (departure_observed) {
      t_min = std::min(t_min, departure);
      t_max = std::max(t_max, departure);
    }
    if (arrival_observed && departure_observed) {
      resp_sum[q] += departure - arrival;
      ++resp_count[q];
      ++observed_responses;
    }
  }

  std::size_t NumTasks() const { return counts.empty() ? 0 : counts[0]; }
};

struct MeanFieldFit {
  std::vector<double> rates;      // index 0 = lambda
  std::vector<double> mean_wait;  // index 0 = 0
  // Per queue: nonzero when rates[q] is estimated from this window rather than the
  // fallback. lambda (q = 0) needs an observed entry; a queue q > 0 needs events at q
  // and a busy span (at least two distinct observed times).
  std::vector<char> fitted;
  // Events whose response was directly measured (arrival and departure both observed).
  std::size_t observed_responses = 0;
  bool AllQueuesFitted() const {
    for (std::size_t q = 1; q < fitted.size(); ++q) {
      if (fitted[q] == 0) {
        return false;
      }
    }
    return !fitted.empty();
  }
};

class MeanFieldEstimator {
 public:
  explicit MeanFieldEstimator(MeanFieldOptions options = {}) : options_(options) {}

  // The closure: fits one window from its accumulated statistics. `arrival_time_origin`
  // anchors lambda exactly like StemOptions::arrival_time_origin (0.0 = absolute,
  // window t0 = window-local). The out-param is assign()ed in place so a reused `out`
  // makes the fit allocation-free.
  void Fit(const MeanFieldStats& stats, double arrival_time_origin, MeanFieldFit& out);

  // Accumulates `truth`'s events in id order, then runs the same closure. `truth`
  // provides structure + observed times (unobserved times are never read). The
  // statistics live in the estimator, so a reused estimator is allocation-free.
  void Fit(const EventLog& truth, const Observation& obs, double arrival_time_origin,
           MeanFieldFit& out);

  const MeanFieldOptions& Options() const { return options_; }

 private:
  void Close(const MeanFieldStats& stats, double arrival_time_origin, MeanFieldFit& out);

  MeanFieldOptions options_;
  MeanFieldStats stats_;  // Fit(log)'s accumulator
};

// Stationary M/M/1 mean waiting time W = lambda / (mu (mu - lambda)), with utilization
// clamped to max_utilization so overloaded inputs return a large finite wait instead of
// a negative or infinite one.
double MeanFieldWait(double lambda, double mu, double max_utilization = 0.95);

struct PooledCorrection {
  double rate = 0.0;
  double wait = 0.0;
};

// Corrects a pooled per-queue (service rate, mean wait) pair for cross-lane bias using
// the response invariant R = 1/pooled_rate + pooled_wait (see file comment):
// rate = lambda_q + 1/R, wait = R - 1/rate. lambda_q is the queue's TRUE event arrival
// rate (total count across lanes / window span). Degenerate inputs (nonpositive rate or
// response) are returned unchanged.
PooledCorrection CorrectCrossLaneShare(double pooled_rate, double pooled_wait,
                                       double lambda_q);

// Model-based fallback when the pooled fit has no waiting-time estimate: solves the
// damped fixed point S_b = S + W(lambda_q, 1/S) - sum_l w_l W(p_l lambda_q, 1/S) for
// the true mean service S, where p_l = lane_shares[l] is lane l's share of the queue's
// events and w_l = lane_weights[l] its weight in the pool (normalized internally). The
// bracketed term is the mean-field estimate of the cross-lane waiting share a lane
// cannot explain from its own sub-log. Deterministic: fixed iteration count, result
// clamped to [pooled_rate, pooled_rate / min_service_fraction].
double ModelCrossLaneServiceRate(double pooled_rate, double lambda_q,
                                 std::span<const double> lane_shares,
                                 std::span<const double> lane_weights,
                                 std::size_t iterations = 24,
                                 double min_service_fraction = 0.05);

}  // namespace qnet

#endif  // QNET_INFER_MEANFIELD_H_
