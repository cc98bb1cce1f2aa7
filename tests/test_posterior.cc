// Posterior summaries over Gibbs chains: accumulation, credible intervals, rate draws.

#include "qnet/infer/posterior.h"

#include <gtest/gtest.h>

#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/check.h"
#include "qnet/support/math.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

TEST(PosteriorSummary, AccumulatesAndSummarizes) {
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 5.0);
  Rng rng(3);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 100), rng);
  PosteriorSummary summary(net.NumQueues());
  summary.Accumulate(log);
  summary.Accumulate(log);
  EXPECT_EQ(summary.NumSamples(), 2u);
  const auto realized = log.PerQueueMeanService();
  EXPECT_DOUBLE_EQ(summary.MeanService()[1], realized[1]);
  EXPECT_DOUBLE_EQ(summary.ServiceQuantile(0.5)[1], realized[1]);
  EXPECT_EQ(summary.ServiceSeries(1).size(), 2u);
  EXPECT_THROW(summary.ServiceSeries(7), Error);
}

// One Gibbs chain at fixed rates feeding a PosteriorSummary: `sweeps` sweeps from a
// random feasible start, the first `burn_in` discarded.
PosteriorSummary RunChain(const EventLog& truth, const Observation& obs,
                          const std::vector<double>& rates, Rng& rng, int sweeps,
                          int burn_in) {
  GibbsSampler sampler(InitializeFeasible(truth, obs, rates, rng), obs, rates);
  PosteriorSummary summary(truth.NumQueues());
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    sampler.Sweep(rng);
    if (sweep >= burn_in) {
      summary.Accumulate(sampler.State());
    }
  }
  return summary;
}

TEST(PosteriorSummary, OneChainMeanIsNearTruthAndInsideItsInterval) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  const auto rates = net.ExponentialRates();
  Rng rng(5);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 200), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.3;
  const Observation obs = scheme.Apply(truth, rng);

  const PosteriorSummary summary = RunChain(truth, obs, rates, rng, 350, 50);
  EXPECT_EQ(summary.NumSamples(), 300u);
  // Posterior mean near the realized truth.
  EXPECT_NEAR(summary.MeanService()[1], truth.PerQueueMeanService()[1], 0.06);
  // Credible interval brackets the posterior mean.
  const auto lo = summary.ServiceQuantile(0.05);
  const auto hi = summary.ServiceQuantile(0.95);
  EXPECT_LT(lo[1], summary.MeanService()[1]);
  EXPECT_GT(hi[1], summary.MeanService()[1]);
}

TEST(PosteriorSummary, OneChainIntervalWidthShrinksWithMoreData) {
  // Credible intervals at 60% observed should be no wider than at 10% observed.
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 5.0);
  const auto rates = net.ExponentialRates();
  const auto width_at = [&](double fraction) {
    Rng rng(7);
    const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 400), rng);
    TaskSamplingScheme scheme;
    scheme.fraction = fraction;
    const Observation obs = scheme.Apply(truth, rng);
    const PosteriorSummary summary = RunChain(truth, obs, rates, rng, 200, 40);
    return summary.ServiceQuantile(0.95)[1] - summary.ServiceQuantile(0.05)[1];
  };
  EXPECT_LT(width_at(0.6), width_at(0.1) + 1e-6);
}

TEST(PosteriorSummary, TailResponseEstimateTracksRealizedP95) {
  // Posterior p95 per-queue response from a 30% trace should land near the realized p95 —
  // the tail-latency estimate operators actually watch.
  const QueueingNetwork net = MakeSingleQueueNetwork(3.0, 5.0);  // rho = 0.6: real tail
  const auto rates = net.ExponentialRates();
  Rng rng(21);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(3.0, 600), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.3;
  const Observation obs = scheme.Apply(truth, rng);
  const PosteriorSummary summary = RunChain(truth, obs, rates, rng, 120, 40);
  const double realized_p95 = truth.PerQueueResponseQuantile(0.95)[1];
  EXPECT_NEAR(summary.MeanTailResponse()[1], realized_p95, 0.3 * realized_p95);
}

TEST(PosteriorSummary, RateDrawsAreReciprocalSweepMeansAndMomentConsistent) {
  // The parameter-draw accessor: draw i must be the reciprocal of the i-th accumulated
  // per-queue mean service time, so draw moments/quantiles are consistent with the
  // summary's own series on the reciprocal scale.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(17);
  PosteriorSummary summary(net.NumQueues());
  for (int i = 0; i < 5; ++i) {
    const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 80), rng);
    summary.Accumulate(log);
  }
  ASSERT_EQ(summary.NumSamples(), 5u);
  for (std::size_t draw = 0; draw < summary.NumSamples(); ++draw) {
    const auto rates = summary.RateDraw(draw);
    ASSERT_EQ(rates.size(), static_cast<std::size_t>(net.NumQueues()));
    for (int q = 0; q < net.NumQueues(); ++q) {
      EXPECT_DOUBLE_EQ(rates[static_cast<std::size_t>(q)],
                       1.0 / summary.ServiceSeries(q)[draw]);
    }
  }
  // Moment consistency: the mean of the reciprocal draws equals the mean service series
  // mapped through 1/x pointwise (same data, same order).
  for (int q = 0; q < net.NumQueues(); ++q) {
    double mean_rate = 0.0;
    for (std::size_t draw = 0; draw < summary.NumSamples(); ++draw) {
      mean_rate += summary.RateDraw(draw)[static_cast<std::size_t>(q)];
    }
    mean_rate /= static_cast<double>(summary.NumSamples());
    double expected = 0.0;
    for (const double s : summary.ServiceSeries(q)) {
      expected += 1.0 / s;
    }
    expected /= static_cast<double>(summary.NumSamples());
    EXPECT_DOUBLE_EQ(mean_rate, expected);
  }
  // Quantile consistency: 1/x is decreasing, so the q-quantile of the rates is the
  // (1-q)-quantile of the service series, reciprocated.
  std::vector<double> rate_series;
  for (std::size_t draw = 0; draw < summary.NumSamples(); ++draw) {
    rate_series.push_back(summary.RateDraw(draw)[1]);
  }
  EXPECT_NEAR(Quantile(rate_series, 1.0), 1.0 / summary.ServiceQuantile(0.0)[1], 1e-12);
  EXPECT_NEAR(Quantile(rate_series, 0.0), 1.0 / summary.ServiceQuantile(1.0)[1], 1e-12);
  // Out-of-range draw indices are contract violations.
  EXPECT_THROW(summary.RateDraw(5), Error);
}

TEST(PosteriorSummary, RateDrawsSurviveMergeInChainOrder) {
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 5.0);
  Rng rng(29);
  const EventLog log_a = SimulateWorkload(net, PoissonArrivals(2.0, 60), rng);
  const EventLog log_b = SimulateWorkload(net, PoissonArrivals(2.0, 60), rng);
  PosteriorSummary first(net.NumQueues());
  first.Accumulate(log_a);
  PosteriorSummary second(net.NumQueues());
  second.Accumulate(log_b);
  first.Merge(second);
  ASSERT_EQ(first.NumSamples(), 2u);
  EXPECT_DOUBLE_EQ(first.RateDraw(0)[1], 1.0 / log_a.PerQueueMeanService()[1]);
  EXPECT_DOUBLE_EQ(first.RateDraw(1)[1], 1.0 / log_b.PerQueueMeanService()[1]);
}

}  // namespace
}  // namespace qnet
