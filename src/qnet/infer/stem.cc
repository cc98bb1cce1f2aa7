#include "qnet/infer/stem.h"

#include <algorithm>
#include <cmath>

#include "qnet/infer/estimators.h"
#include "qnet/support/check.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

std::vector<double> StemEstimator::MStep(const EventLog& log, double service_sum_floor,
                                         double arrival_time_origin) {
  std::vector<double> sums(static_cast<std::size_t>(log.NumQueues()));
  log.PerQueueServiceSumInto(sums);
  const std::vector<std::size_t> counts = log.PerQueueCount();
  std::vector<double> rates(sums.size(), 0.0);
  MStepFromSums(sums, counts, rates, service_sum_floor, arrival_time_origin);
  return rates;
}

void StemEstimator::MStepFromSums(std::span<const double> sums,
                                  std::span<const std::size_t> counts,
                                  std::span<double> rates, double service_sum_floor,
                                  double arrival_time_origin) {
  QNET_CHECK(sums.size() == counts.size() && sums.size() == rates.size(),
             "per-queue statistic sizes disagree");
  for (std::size_t q = 0; q < sums.size(); ++q) {
    QNET_CHECK(counts[q] > 0, "queue ", q, " has no events; cannot estimate its rate");
    // Queue 0's sum telescopes to the imputed last entry time; re-anchoring it to the
    // window origin makes lambda window-local. origin 0.0 subtracts exactly nothing.
    // A window whose (imputed) entries all sit at or before the origin — e.g. a lane's
    // share consisting solely of late-merged records — has no window-local arrival span;
    // fall back to the absolute anchor rather than dividing by the floor (which would
    // explode lambda to ~n/1e-9).
    double sum = sums[q];
    if (q == 0 && sums[q] - arrival_time_origin > 0.0) {
      sum = sums[q] - arrival_time_origin;
    }
    rates[q] = static_cast<double>(counts[q]) / std::max(sum, service_sum_floor);
  }
}

StemResult StemEstimator::Run(const EventLog& truth, const Observation& obs,
                              std::vector<double> init_rates, Rng& rng) const {
  StemWorkspace workspace;
  return Run(truth, obs, std::move(init_rates), rng, workspace);
}

StemResult StemEstimator::Run(const EventLog& truth, const Observation& obs,
                              std::vector<double> init_rates, Rng& rng,
                              StemWorkspace& ws) const {
  ScopedSpan span(SpanStage::kStemFit);
  FitCounters::Get().stem_fits->Increment();
  if (init_rates.empty()) {
    init_rates = WarmStartRates(truth, obs);
  }
  QNET_CHECK(init_rates.size() == static_cast<std::size_t>(truth.NumQueues()),
             "init_rates size mismatch");
  QNET_CHECK(options_.iterations > options_.burn_in,
             "need iterations > burn_in; iterations=", options_.iterations,
             " burn_in=", options_.burn_in);

  // The initial state is written straight into the sampler's log, which is then
  // re-targeted at it: no EventLog is copied or constructed per window once warm.
  GibbsSampler& gibbs = ws.sampler_;
  InitializeFeasibleInto(truth, obs, init_rates, rng, options_.init, ws.init_,
                         gibbs.MutableState());
  gibbs.Retarget(obs, init_rates, options_.gibbs);
  // The M-step's counts are constant under the fixed link structure: gather them once.
  const std::size_t num_queues = init_rates.size();
  std::vector<std::size_t>& counts = ws.counts_;
  counts.assign(num_queues, 0);
  for (EventId e = 0; static_cast<std::size_t>(e) < gibbs.State().NumEvents(); ++e) {
    ++counts[static_cast<std::size_t>(gibbs.State().AtUnchecked(e).queue)];
  }

  std::vector<double>& sums = ws.sums_;
  sums.assign(num_queues, 0.0);
  std::vector<double>& rates = ws.rates_;
  rates.assign(init_rates.begin(), init_rates.end());
  std::vector<double>& new_rates = ws.new_rates_;
  new_rates.assign(num_queues, 0.0);
  std::vector<double>& rate_accum = ws.rate_accum_;
  rate_accum.assign(num_queues, 0.0);
  std::size_t accum_count = 0;
  // Early-stop state: previous post-burn-in running mean and the consecutive-stable
  // streak. Pure functions of the rate trace (see StemOptions::convergence_tol).
  std::vector<double>& prev_mean = ws.prev_mean_;
  prev_mean.assign(num_queues, 0.0);
  std::size_t stable_streak = 0;

  StemResult result;
  result.latent_arrivals = gibbs.NumLatentArrivals();
  result.rate_trace.num_queues = num_queues;
  result.rate_trace.values.reserve(options_.iterations * num_queues);

  for (std::size_t iter = 0; iter < options_.iterations; ++iter) {
    // E-step: one (or a few) Gibbs sweeps at the current rates.
    gibbs.SetRates(rates);
    for (std::size_t s = 0; s < options_.sweeps_per_iteration; ++s) {
      gibbs.Sweep(rng);
    }
    // M-step: complete-data MLE from one scan of the imputed log.
    gibbs.State().PerQueueServiceSumInto(sums);
    MStepFromSums(sums, counts, new_rates, options_.service_sum_floor,
                  options_.arrival_time_origin);
    if (!options_.estimate_arrival_rate) {
      new_rates[0] = rates[0];
    }
    rates.swap(new_rates);
    result.rate_trace.values.insert(result.rate_trace.values.end(), rates.begin(),
                                    rates.end());
    if (iter >= options_.burn_in) {
      for (std::size_t q = 0; q < num_queues; ++q) {
        rate_accum[q] += rates[q];
      }
      ++accum_count;
      if (options_.convergence_tol > 0.0) {
        double max_rel_change = 0.0;
        for (std::size_t q = 0; q < num_queues; ++q) {
          const double mean = rate_accum[q] / static_cast<double>(accum_count);
          if (accum_count >= 2) {
            const double rel = std::abs(mean - prev_mean[q]) /
                               std::max(std::abs(prev_mean[q]), 1e-12);
            max_rel_change = std::max(max_rel_change, rel);
          }
          prev_mean[q] = mean;
        }
        if (accum_count >= 2) {
          stable_streak = max_rel_change <= options_.convergence_tol ? stable_streak + 1 : 0;
          if (stable_streak >= options_.convergence_patience) {
            break;
          }
        }
      }
    }
  }
  result.iterations_run = result.rate_trace.NumIterations();
  FitCounters::Get().stem_iterations->Add(result.iterations_run);

  result.rates.resize(num_queues);
  for (std::size_t q = 0; q < num_queues; ++q) {
    result.rates[q] = rate_accum[q] / static_cast<double>(accum_count);
  }
  result.mean_service.resize(num_queues);
  for (std::size_t q = 0; q < num_queues; ++q) {
    result.mean_service[q] = 1.0 / result.rates[q];
  }

  // Waiting-time phase: freeze the averaged rates and average per-queue waits over sweeps.
  // Each sweep's per-queue mean is its wait sum over the (link-constant, nonzero — the
  // M-step checked them) counts: PerQueueMeanWait's arithmetic without its vectors.
  if (options_.wait_sweeps > 0) {
    gibbs.SetRates(result.rates);
    std::vector<double>& wait_accum = ws.wait_accum_;
    wait_accum.assign(num_queues, 0.0);
    for (std::size_t s = 0; s < options_.wait_sweeps; ++s) {
      gibbs.Sweep(rng);
      gibbs.State().PerQueueWaitSumInto(sums);
      for (std::size_t q = 0; q < num_queues; ++q) {
        wait_accum[q] += sums[q] / static_cast<double>(counts[q]);
      }
    }
    result.mean_wait.resize(num_queues);
    for (std::size_t q = 0; q < num_queues; ++q) {
      result.mean_wait[q] = wait_accum[q] / static_cast<double>(options_.wait_sweeps);
    }
  }
  return result;
}

}  // namespace qnet
