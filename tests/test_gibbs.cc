// Gibbs sampler correctness: invariant preservation, no-op on fully observed data, and —
// the strongest check — agreement of posterior means with exact analytic/numeric values on
// a small tractable case.

#include "qnet/infer/gibbs.h"

#include <cmath>

#include <gtest/gtest.h>

#include "qnet/infer/initializer.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/check.h"
#include "qnet/support/math.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

TEST(Gibbs, FullyObservedSweepIsNoOp) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(3);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 50), rng);
  const Observation obs = Observation::FullyObserved(truth);
  GibbsSampler sampler(truth, obs, net.ExponentialRates());
  EXPECT_EQ(sampler.NumLatentArrivals(), 0u);
  EXPECT_EQ(sampler.NumLatentFinalDepartures(), 0u);
  sampler.Sweep(rng);
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    EXPECT_DOUBLE_EQ(sampler.State().Arrival(e), truth.Arrival(e));
    EXPECT_DOUBLE_EQ(sampler.State().Departure(e), truth.Departure(e));
  }
}

TEST(Gibbs, SweepsPreserveFeasibilityAndObservations) {
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  const auto rates = net.ExponentialRates();
  Rng rng(5);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(10.0, 150), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.2;
  const Observation obs = scheme.Apply(truth, rng);
  EventLog init = InitializeFeasible(truth, obs, rates, rng);
  GibbsSampler sampler(std::move(init), obs, rates);
  EXPECT_GT(sampler.NumLatentArrivals(), 0u);
  for (int sweep = 0; sweep < 20; ++sweep) {
    sampler.Sweep(rng);
  }
  std::string why;
  EXPECT_TRUE(sampler.State().IsFeasible(1e-6, &why)) << why;
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    if (obs.ArrivalObserved(e)) {
      EXPECT_DOUBLE_EQ(sampler.State().Arrival(e), truth.Arrival(e));
    }
  }
}

// Exact posterior check. Network: single M/M/1 queue, lambda = 1, mu = 2.
// Task 0 fully observed: entry 1.0, service start 1.0, departure 2.0.
// Task 1 fully latent: entry a, departure d, constrained by a >= 1, d >= max(a, 2).
// Joint: p(a, d) ∝ exp(-lambda (a - 1)) exp(-mu (d - max(a, 2))).
// Marginals: a - 1 ~ Exp(lambda); E[d] = E[max(a, 2)] + 1/mu = 2 + e^{-1} + 0.5.
TEST(Gibbs, PosteriorMeansMatchAnalyticOnTractableCase) {
  EventLog log(2);
  log.AddTask(1.0);
  log.AddTask(1.5);  // initial value of the latent entry; will be resampled
  log.AddVisit(0, 0, 1, 1.0, 2.0);
  log.AddVisit(1, 0, 1, 1.5, 2.5);
  log.BuildQueueLinks();

  Observation obs;
  obs.arrival_observed.assign(log.NumEvents(), 0);
  obs.departure_observed.assign(log.NumEvents(), 0);
  const auto& chain0 = log.TaskEvents(0);
  const auto& chain1 = log.TaskEvents(1);
  obs.arrival_observed[static_cast<std::size_t>(chain0[0])] = 1;
  obs.arrival_observed[static_cast<std::size_t>(chain1[0])] = 1;
  obs.arrival_observed[static_cast<std::size_t>(chain0[1])] = 1;  // task 0 fully observed
  obs.departure_observed[static_cast<std::size_t>(chain0[0])] = 1;
  obs.departure_observed[static_cast<std::size_t>(chain0[1])] = 1;
  obs.Validate(log);

  const std::vector<double> rates = {1.0, 2.0};  // lambda, mu
  GibbsSampler sampler(log, obs, rates);
  EXPECT_EQ(sampler.NumLatentArrivals(), 1u);
  EXPECT_EQ(sampler.NumLatentFinalDepartures(), 1u);

  Rng rng(11);
  RunningStat a_stat;
  RunningStat d_stat;
  const int burn_in = 500;
  const int sweeps = 60000;
  for (int i = 0; i < sweeps; ++i) {
    sampler.Sweep(rng);
    if (i >= burn_in) {
      a_stat.Add(sampler.State().Arrival(chain1[1]));
      d_stat.Add(sampler.State().Departure(chain1[1]));
    }
  }
  const double expected_a = 2.0;                              // 1 + 1/lambda
  const double expected_d = 2.0 + std::exp(-1.0) + 0.5;       // E[max(a,2)] + 1/mu
  EXPECT_NEAR(a_stat.Mean(), expected_a, 0.03);
  EXPECT_NEAR(d_stat.Mean(), expected_d, 0.03);
  // Marginal variance of a is 1/lambda^2 = 1; the (a, d) chain is autocorrelated, so the
  // variance estimate converges more slowly than the means.
  EXPECT_NEAR(a_stat.Variance(), 1.0, 0.15);
}

TEST(Gibbs, StationaryAtTruthUnderTrueRates) {
  // Starting from the ground truth with the true rates, long-run per-queue mean services
  // should stay near the truth (the chain is stationary; no systematic drift).
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  const auto rates = net.ExponentialRates();
  Rng rng(13);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 400), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.3;
  const Observation obs = scheme.Apply(truth, rng);
  GibbsSampler sampler(truth, obs, rates);  // truth is trivially feasible
  std::vector<RunningStat> mean_service(static_cast<std::size_t>(truth.NumQueues()));
  for (int sweep = 0; sweep < 300; ++sweep) {
    sampler.Sweep(rng);
    const auto services = sampler.State().PerQueueMeanService();
    for (std::size_t q = 0; q < services.size(); ++q) {
      mean_service[q].Add(services[q]);
    }
  }
  // Posterior means hover near the true parameter means (1/mu), within posterior spread.
  EXPECT_NEAR(mean_service[1].Mean(), 0.25, 0.05);
  EXPECT_NEAR(mean_service[2].Mean(), 1.0 / 3.0, 0.06);
}

TEST(Gibbs, LogJointIncreasesFromBadInitialization) {
  // From a feasible but atypical initialization, the chain should move toward regions of
  // higher joint density (on average).
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  const auto rates = net.ExponentialRates();
  Rng rng(17);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 200), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.05;
  const Observation obs = scheme.Apply(truth, rng);
  GibbsSampler sampler(InitializeFeasible(truth, obs, rates, rng), obs, rates);
  const double initial = sampler.LogJointExponential();
  double late = 0.0;
  for (int sweep = 0; sweep < 50; ++sweep) {
    sampler.Sweep(rng);
    if (sweep >= 40) {
      late += sampler.LogJointExponential() / 10.0;
    }
  }
  EXPECT_GT(late, initial - 50.0);  // no catastrophic drift to low-density regions
}

TEST(Gibbs, RejectsMismatchedRates) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0});
  Rng rng(19);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 10), rng);
  const Observation obs = Observation::FullyObserved(truth);
  GibbsSampler sampler(truth, obs, net.ExponentialRates());
  EXPECT_THROW(sampler.SetRates(std::vector<double>{1.0}), Error);
  EXPECT_THROW(sampler.SetRates(std::vector<double>{1.0, -2.0}), Error);
}

// Rerouting an event through MutableState() changes the link structure that the sweep
// schedule's coloring and move geometry were built on. The next Sweep must rebuild the
// schedule, so further sweeps equal, bit for bit, those of a sampler freshly built on the
// rerouted state with the same RNG.
TEST(Gibbs, SweepsAfterRerouteMatchAFreshSampler) {
  ThreeTierConfig config;
  config.tier_sizes = {1, 3};
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  const auto rates = net.ExponentialRates();
  Rng setup_rng(17);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(10.0, 150), setup_rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.3;
  const Observation obs = scheme.Apply(truth, setup_rng);
  GibbsSampler sampler(InitializeFeasible(truth, obs, rates, setup_rng), obs, rates);
  Rng rng(23);
  for (int sweep = 0; sweep < 3; ++sweep) {
    sampler.Sweep(rng);
  }

  // Move one latent event to another replica of its tier (queues 2..4), keeping the
  // first move whose times stay FIFO-feasible on the new queue.
  std::vector<char> task_observed(static_cast<std::size_t>(truth.NumTasks()), 0);
  for (int task : obs.observed_tasks) {
    task_observed[static_cast<std::size_t>(task)] = 1;
  }
  EventLog& state = sampler.MutableState();
  bool rerouted = false;
  for (EventId e = 0; !rerouted && static_cast<std::size_t>(e) < state.NumEvents(); ++e) {
    const Event& event = state.At(e);
    if (event.queue < 2 || task_observed[static_cast<std::size_t>(event.task)] != 0) {
      continue;
    }
    const int from = event.queue;
    for (int to = 2; to <= 4 && !rerouted; ++to) {
      if (to == from) {
        continue;
      }
      state.MoveEventToQueue(e, to);
      rerouted = state.IsFeasible(1e-6);
      if (!rerouted) {
        state.MoveEventToQueue(e, from);
      }
    }
  }
  ASSERT_TRUE(rerouted) << "no feasible reroute, nothing to test";

  GibbsSampler fresh(sampler.State(), obs, rates);
  Rng rng_fresh = rng;
  for (int sweep = 0; sweep < 4; ++sweep) {
    sampler.Sweep(rng);
    fresh.Sweep(rng_fresh);
  }
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    ASSERT_EQ(sampler.State().Arrival(e), fresh.State().Arrival(e)) << "event " << e;
    ASSERT_EQ(sampler.State().Departure(e), fresh.State().Departure(e)) << "event " << e;
  }
  std::string why;
  EXPECT_TRUE(sampler.State().IsFeasible(1e-6, &why)) << why;
}

}  // namespace
}  // namespace qnet
