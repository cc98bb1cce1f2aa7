// Stochastic EM: parameter recovery from incomplete traces, M-step correctness, and the
// waiting-time estimation phase.

#include "qnet/infer/stem.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include <gtest/gtest.h>

#include "qnet/infer/estimators.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/check.h"
#include "qnet/support/math.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

TEST(MStep, MatchesCompleteDataMle) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(3);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 300), rng);
  const auto mstep = StemEstimator::MStep(log);
  const auto mle = CompleteDataRatesMle(log);
  ASSERT_EQ(mstep.size(), mle.size());
  for (std::size_t q = 0; q < mle.size(); ++q) {
    EXPECT_NEAR(mstep[q], mle[q], 1e-9) << "queue " << q;
  }
  // And the MLE should be near the generating rates.
  EXPECT_NEAR(mle[0], 2.0, 0.3);
  EXPECT_NEAR(mle[1], 4.0, 0.6);
  EXPECT_NEAR(mle[2], 3.0, 0.45);
}

TEST(MStep, ArrivalTimeOriginAnchorsLambdaWindowLocally) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(3);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 300), rng);
  const auto absolute = StemEstimator::MStep(log);
  // Explicit zero origin is the default, bit for bit.
  const auto explicit_zero = StemEstimator::MStep(log, 1e-9, 0.0);
  ASSERT_EQ(absolute.size(), explicit_zero.size());
  for (std::size_t q = 0; q < absolute.size(); ++q) {
    EXPECT_EQ(absolute[q], explicit_zero[q]) << "queue " << q;
  }
  // The queue-0 service sum telescopes to the last entry time, so re-anchoring the
  // origin rescales lambda to n / (last_entry - origin) and touches nothing else.
  const double last_entry = log.TaskEntryTime(log.NumTasks() - 1);
  const double origin = 0.25 * last_entry;
  const auto anchored = StemEstimator::MStep(log, 1e-9, origin);
  EXPECT_NEAR(anchored[0],
              static_cast<double>(log.NumTasks()) / (last_entry - origin), 1e-9);
  for (std::size_t q = 1; q < absolute.size(); ++q) {
    EXPECT_EQ(anchored[q], absolute[q]) << "queue " << q;
  }
  // An origin at/after the last entry leaves no window-local span (e.g. a lane's share
  // of a window consisting solely of late-merged records): fall back to the absolute
  // anchor instead of exploding lambda against the service_sum_floor.
  const auto degenerate = StemEstimator::MStep(log, 1e-9, 2.0 * last_entry);
  EXPECT_EQ(degenerate[0], absolute[0]);
}

TEST(Stem, FullObservationReducesToCompleteDataMle) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(5);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 200), rng);
  const Observation obs = Observation::FullyObserved(truth);
  StemOptions options;
  options.iterations = 5;
  options.burn_in = 1;
  options.wait_sweeps = 0;
  const StemResult result =
      StemEstimator(options).Run(truth, obs, {1.0, 1.0, 1.0}, rng);
  const auto mle = CompleteDataRatesMle(truth);
  for (std::size_t q = 0; q < mle.size(); ++q) {
    EXPECT_NEAR(result.rates[q], mle[q], 1e-6) << "queue " << q;
  }
  EXPECT_EQ(result.latent_arrivals, 0u);
}

TEST(Stem, RecoversRatesFromHalfObservedTandem) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {5.0, 4.0});
  const auto true_rates = net.ExponentialRates();
  Rng rng(7);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 600), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, rng);

  StemOptions options;
  options.iterations = 120;
  options.burn_in = 40;
  options.wait_sweeps = 0;
  const StemResult result =
      StemEstimator(options).Run(truth, obs, {1.0, 1.0, 1.0}, rng);
  for (std::size_t q = 0; q < true_rates.size(); ++q) {
    EXPECT_NEAR(result.mean_service[q], 1.0 / true_rates[q], 0.2 / true_rates[q])
        << "queue " << q;
  }
}

TEST(Stem, RecoversServiceMeansAtLowObservationFraction) {
  // The paper's headline regime: a small fraction of tasks observed.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {5.0, 4.0});
  Rng rng(11);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 1000), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.1;
  const Observation obs = scheme.Apply(truth, rng);
  StemOptions options;
  options.iterations = 300;
  options.burn_in = 120;
  options.wait_sweeps = 0;
  const StemResult result =
      StemEstimator(options).Run(truth, obs, {1.0, 1.0, 1.0}, rng);
  // Looser tolerance: only ~100 tasks carry direct timing information.
  EXPECT_NEAR(result.mean_service[1], 0.2, 0.1);
  EXPECT_NEAR(result.mean_service[2], 0.25, 0.12);
  EXPECT_NEAR(1.0 / result.rates[0], 0.5, 0.15);  // mean interarrival
}

TEST(Stem, WaitingTimeEstimatesTrackRealizedWaits) {
  // Moderately loaded single queue; realized mean wait is stable and should be recovered.
  const QueueingNetwork net = MakeSingleQueueNetwork(3.0, 5.0);  // rho = 0.6
  Rng rng(13);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(3.0, 800), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.25;
  const Observation obs = scheme.Apply(truth, rng);
  StemOptions options;
  options.iterations = 120;
  options.burn_in = 40;
  options.wait_sweeps = 60;
  const StemResult result = StemEstimator(options).Run(truth, obs, {1.0, 1.0}, rng);
  const double realized_wait = truth.PerQueueMeanWait()[1];
  ASSERT_FALSE(result.mean_wait.empty());
  EXPECT_NEAR(result.mean_wait[1], realized_wait, 0.35 * realized_wait + 0.03);
}

TEST(Stem, KeepsArrivalRateFixedWhenAsked) {
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 6.0);
  Rng rng(17);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 150), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, rng);
  StemOptions options;
  options.iterations = 30;
  options.burn_in = 10;
  options.wait_sweeps = 0;
  options.estimate_arrival_rate = false;
  const StemResult result = StemEstimator(options).Run(truth, obs, {2.5, 1.0}, rng);
  EXPECT_DOUBLE_EQ(result.rates[0], 2.5);
  for (std::size_t iter = 0; iter < result.rate_trace.NumIterations(); ++iter) {
    EXPECT_DOUBLE_EQ(result.rate_trace.Row(iter)[0], 2.5);
  }
}

TEST(Stem, RateTraceHasExpectedShape) {
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 6.0);
  Rng rng(19);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 100), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.3;
  const Observation obs = scheme.Apply(truth, rng);
  StemOptions options;
  options.iterations = 25;
  options.burn_in = 5;
  options.wait_sweeps = 0;
  StemWorkspace workspace;
  const StemResult result =
      StemEstimator(options).Run(truth, obs, {1.0, 1.0}, rng, workspace);
  EXPECT_EQ(result.rate_trace.NumIterations(), 25u);
  EXPECT_EQ(result.rate_trace.num_queues, 2u);
  EXPECT_EQ(result.rate_trace.values.size(), 50u);
  EXPECT_THROW(result.rate_trace.Row(25), Error);
  ASSERT_EQ(workspace.State().NumEvents(), truth.NumEvents());
  std::string why;
  EXPECT_TRUE(workspace.State().IsFeasible(1e-6, &why)) << why;
  EXPECT_THROW(
      {
        StemOptions bad;
        bad.iterations = 5;
        bad.burn_in = 5;
        StemEstimator(bad).Run(truth, obs, {1.0, 1.0}, rng);
      },
      Error);
}

// Recomputes the early-stop point from a rate trace alone: the stop rule is a pure
// function of the trace, so this must reproduce StemResult::iterations_run exactly.
std::size_t StopPointFromTrace(const RateTrace& trace, std::size_t burn_in, double tol,
                               std::size_t patience) {
  const std::size_t num_queues = trace.num_queues;
  std::vector<double> accum(num_queues, 0.0);
  std::vector<double> prev_mean(num_queues, 0.0);
  std::size_t accum_count = 0;
  std::size_t streak = 0;
  for (std::size_t iter = 0; iter < trace.NumIterations(); ++iter) {
    if (iter < burn_in) {
      continue;
    }
    for (std::size_t q = 0; q < num_queues; ++q) {
      accum[q] += trace.Row(iter)[q];
    }
    ++accum_count;
    double max_rel = 0.0;
    for (std::size_t q = 0; q < num_queues; ++q) {
      const double mean = accum[q] / static_cast<double>(accum_count);
      if (accum_count >= 2) {
        max_rel = std::max(max_rel, std::abs(mean - prev_mean[q]) /
                                        std::max(std::abs(prev_mean[q]), 1e-12));
      }
      prev_mean[q] = mean;
    }
    if (accum_count >= 2) {
      streak = max_rel <= tol ? streak + 1 : 0;
      if (streak >= patience) {
        return iter + 1;
      }
    }
  }
  return trace.NumIterations();
}

TEST(Stem, ZeroConvergenceTolIsBitExactFullRun) {
  // tol = 0 (the default) must leave the sampler path untouched: same seed, same bits,
  // full iteration count reported.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {5.0, 4.0});
  Rng sim_rng(29);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 200), sim_rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.4;
  const Observation obs = scheme.Apply(truth, sim_rng);
  StemOptions options;
  options.iterations = 20;
  options.burn_in = 5;
  options.wait_sweeps = 0;
  ASSERT_EQ(options.convergence_tol, 0.0);

  Rng rng_a(31);
  const StemResult a = StemEstimator(options).Run(truth, obs, {1.0, 1.0, 1.0}, rng_a);
  Rng rng_b(31);
  const StemResult b = StemEstimator(options).Run(truth, obs, {1.0, 1.0, 1.0}, rng_b);
  EXPECT_EQ(a.rates, b.rates);
  EXPECT_EQ(a.rate_trace, b.rate_trace);
  EXPECT_EQ(a.iterations_run, 20u);
  EXPECT_EQ(b.iterations_run, 20u);
}

TEST(Stem, EarlyStopTraceIsBitExactPrefixOfFullRun) {
  // The stop decision reads only the already-produced trace, never the RNG, so the
  // early-stopped run replays the full run's iterations bit-for-bit up to its stop
  // point, and its averaged rates equal the prefix average exactly.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {5.0, 4.0});
  Rng sim_rng(37);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 300), sim_rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.4;
  const Observation obs = scheme.Apply(truth, sim_rng);

  StemOptions full_options;
  full_options.iterations = 60;
  full_options.burn_in = 8;
  full_options.wait_sweeps = 0;
  Rng full_rng(41);
  const StemResult full =
      StemEstimator(full_options).Run(truth, obs, {1.0, 1.0, 1.0}, full_rng);
  ASSERT_EQ(full.iterations_run, 60u);

  StemOptions stopped_options = full_options;
  stopped_options.convergence_tol = 0.02;
  stopped_options.convergence_patience = 3;
  Rng stopped_rng(41);
  const StemResult stopped =
      StemEstimator(stopped_options).Run(truth, obs, {1.0, 1.0, 1.0}, stopped_rng);

  ASSERT_EQ(stopped.iterations_run, stopped.rate_trace.NumIterations());
  ASSERT_LT(stopped.iterations_run, 60u) << "tolerance chosen to trigger an early stop";
  ASSERT_GE(stopped.iterations_run,
            full_options.burn_in + stopped_options.convergence_patience + 1);
  for (std::size_t iter = 0; iter < stopped.iterations_run; ++iter) {
    EXPECT_TRUE(std::ranges::equal(stopped.rate_trace.Row(iter), full.rate_trace.Row(iter)))
        << "iteration " << iter;
  }
  // Averaged rates = exact average of the post-burn-in prefix, in accumulation order.
  std::vector<double> expect_rates(3, 0.0);
  const std::size_t kept = stopped.iterations_run - full_options.burn_in;
  for (std::size_t iter = full_options.burn_in; iter < stopped.iterations_run; ++iter) {
    for (std::size_t q = 0; q < 3; ++q) {
      expect_rates[q] += stopped.rate_trace.Row(iter)[q];
    }
  }
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_EQ(stopped.rates[q], expect_rates[q] / static_cast<double>(kept));
  }
  // And the estimate stays close to the full run's (that is the point of stopping).
  for (std::size_t q = 1; q < 3; ++q) {
    EXPECT_NEAR(stopped.rates[q], full.rates[q], 0.15 * full.rates[q]);
  }
}

TEST(Stem, EarlyStopRuleIsPureFunctionOfTrace) {
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 6.0);
  Rng sim_rng(43);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 200), sim_rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, sim_rng);

  for (const double tol : {0.05, 0.01}) {
    StemOptions options;
    options.iterations = 50;
    options.burn_in = 5;
    options.wait_sweeps = 0;
    options.convergence_tol = tol;
    options.convergence_patience = 2;
    Rng rng(47);
    const StemResult result = StemEstimator(options).Run(truth, obs, {1.0, 1.0}, rng);
    EXPECT_EQ(result.iterations_run,
              StopPointFromTrace(result.rate_trace, options.burn_in, tol,
                                 options.convergence_patience))
        << "tol=" << tol;
  }
}

TEST(Stem, GoldenTandemFitPinsTheSweepStreamLayout) {
  // A fixed-seed tandem fit, compared bit for bit against hex-float values recorded when
  // the colored schedule still had a shard axis (its single-shard layout). Bucket seeds,
  // the color-class order, the tile lanes and the kernel's arithmetic all feed these
  // values, so a change to any of them fails here, not only in downstream medians.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(2024);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 120), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.25;
  const Observation obs = scheme.Apply(truth, rng);
  StemOptions options;
  options.iterations = 30;
  options.burn_in = 10;
  options.wait_sweeps = 10;
  const StemResult result = StemEstimator(options).Run(truth, obs, {}, rng);

  const double golden_rates[] = {0x1.fbe026301a0cbp+0, 0x1.e94295d4654bap+1,
                                 0x1.74d4f6b51aa17p+1};
  const double golden_waits[] = {0x1.dacde381c96a3p+4, 0x1.8c758268907b8p-3,
                                 0x1.9c6aab5e4126ep-2};
  ASSERT_EQ(result.rates.size(), std::size(golden_rates));
  ASSERT_EQ(result.mean_wait.size(), std::size(golden_waits));
  for (std::size_t q = 0; q < result.rates.size(); ++q) {
    EXPECT_EQ(result.rates[q], golden_rates[q]) << "queue " << q;
    EXPECT_EQ(result.mean_wait[q], golden_waits[q]) << "queue " << q;
  }
}

TEST(Stem, VarianceNoWorseThanObservedMeanBaseline) {
  // Directional version of the paper's in-text claim: across repetitions, StEM's service
  // estimates should not have materially larger spread than the observed-true-service
  // baseline, despite using strictly less information.
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 5.0);
  RunningStat stem_estimates;
  RunningStat baseline_estimates;
  for (int rep = 0; rep < 8; ++rep) {
    Rng rng(100 + static_cast<std::uint64_t>(rep));
    const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 400), rng);
    TaskSamplingScheme scheme;
    scheme.fraction = 0.15;
    const Observation obs = scheme.Apply(truth, rng);
    StemOptions options;
    options.iterations = 80;
    options.burn_in = 30;
    options.wait_sweeps = 0;
    const StemResult result = StemEstimator(options).Run(truth, obs, {1.0, 1.0}, rng);
    stem_estimates.Add(result.mean_service[1]);
    baseline_estimates.Add(ObservedMeanService(truth, obs.observed_tasks).mean_service[1]);
  }
  // Both should be near the truth...
  EXPECT_NEAR(stem_estimates.Mean(), 0.2, 0.05);
  EXPECT_NEAR(baseline_estimates.Mean(), 0.2, 0.05);
  // ...and StEM's spread should be comparable or better (paper: ~2/3 the variance).
  EXPECT_LT(stem_estimates.Variance(), 3.0 * baseline_estimates.Variance() + 1e-6);
}

}  // namespace
}  // namespace qnet
