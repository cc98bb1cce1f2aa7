// Metropolis-Hastings route resampling: link-surgery correctness, exact posterior on an
// enumerable two-server case, and composition with the time-resampling Gibbs sweeps.

#include "qnet/infer/route_mh.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "qnet/dist/exponential.h"
#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/check.h"
#include "qnet/support/logspace.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

TEST(MoveEventToQueue, SpliceAndRestoreRoundTrips) {
  ThreeTierConfig config;
  config.tier_sizes = {2, 2};
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  Rng rng(3);
  EventLog log = SimulateWorkload(net, PoissonArrivals(10.0, 60), rng);
  // Pick a tier-0 event and bounce it between the two tier-0 servers.
  EventId target = kNoEvent;
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    if (!log.At(e).initial && log.At(e).queue == 1) {
      target = e;
      break;
    }
  }
  ASSERT_NE(target, kNoEvent);
  const auto order1_before = log.QueueOrder(1);
  const auto order2_before = log.QueueOrder(2);
  log.MoveEventToQueue(target, 2);
  EXPECT_EQ(log.At(target).queue, 2);
  EXPECT_EQ(log.QueueOrder(1).size(), order1_before.size() - 1);
  EXPECT_EQ(log.QueueOrder(2).size(), order2_before.size() + 1);
  // Arrival order still sorted in both queues.
  for (int q : {1, 2}) {
    const auto& order = log.QueueOrder(q);
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_LE(log.At(order[i - 1]).arrival, log.At(order[i]).arrival);
      EXPECT_EQ(log.At(order[i]).rho, order[i - 1]);
      EXPECT_EQ(log.At(order[i - 1]).nu, order[i]);
    }
  }
  // Moving back restores the original structure exactly.
  log.MoveEventToQueue(target, 1);
  EXPECT_EQ(log.QueueOrder(1), order1_before);
  EXPECT_EQ(log.QueueOrder(2), order2_before);
}

TEST(MoveEventToQueue, GuardsMisuse) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 4.0});
  Rng rng(5);
  EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 10), rng);
  EXPECT_THROW(log.MoveEventToQueue(log.TaskEvents(0)[0], 2), Error);  // initial event
  EXPECT_THROW(log.MoveEventToQueue(log.TaskEvents(0)[1], 0), Error);  // arrival queue
}

// Exact posterior check. One FSM state emits two servers uniformly; several tasks with
// pinned times; one target event's queue is resampled by MH with everything else frozen.
// The assignment posterior over {queue 1, queue 2} is computable by enumeration:
//     p(q) ∝ emission(q) * prod_affected exp-service-densities(q).
TEST(RouteMh, MatchesEnumeratedPosteriorOnTwoServers) {
  ThreeTierConfig config;
  config.tier_sizes = {2};
  config.arrival_rate = 1.0;
  config.service_rate = 4.0;
  QueueingNetwork net = MakeThreeTierNetwork(config);
  // Asymmetric service rates make the posterior non-trivial.
  net.SetService(1, std::make_unique<Exponential>(8.0));
  net.SetService(2, std::make_unique<Exponential>(1.5));
  const auto rates = net.ExponentialRates();

  Rng rng(7);
  EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 40), rng);
  // Target: some mid-log event currently on queue 1.
  EventId target = kNoEvent;
  for (EventId e = 20; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    if (!log.At(e).initial && log.At(e).queue == 1) {
      target = e;
      break;
    }
  }
  ASSERT_NE(target, kNoEvent);

  // Enumerate: joint density (service terms + emission) for each assignment. Skip the
  // configuration if the alternative is FIFO-infeasible at fixed times.
  const auto joint_for = [&](int queue) {
    log.MoveEventToQueue(target, queue);
    double value = kNegInf;
    if (log.IsFeasible(1e-9)) {
      value = log.LogJointTimes(net) + log.LogJointRouting(net);
    }
    return value;
  };
  const int original_queue = 1;
  const double log_j1 = joint_for(1);
  const double log_j2 = joint_for(2);
  log.MoveEventToQueue(target, original_queue);
  if (log_j2 == kNegInf) {
    GTEST_SKIP() << "alternative assignment infeasible for this draw";
  }
  const double p2 = std::exp(log_j2 - LogAdd(log_j1, log_j2));

  // MH frequencies with all times frozen.
  const std::vector<EventId> targets = {target};
  std::size_t on_queue2 = 0;
  const int sweeps = 40000;
  for (int i = 0; i < sweeps; ++i) {
    RouteMhSweep(log, targets, net.GetFsm(), rates, rng);
    on_queue2 += log.At(target).queue == 2 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(on_queue2) / sweeps, p2, 0.02);
  std::string why;
  EXPECT_TRUE(log.IsFeasible(1e-9, &why)) << why;
}

TEST(RouteMh, ComposesWithTimeGibbsSweeps) {
  // Full pipeline with latent routes for unobserved tasks: interleave time sweeps and route
  // sweeps; all invariants must survive.
  ThreeTierConfig config;
  config.tier_sizes = {1, 3};
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  const auto rates = net.ExponentialRates();
  Rng rng(11);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(10.0, 200), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.3;
  const Observation obs = scheme.Apply(truth, rng);

  // Latent routes: all events of unobserved tasks.
  std::vector<char> task_observed(static_cast<std::size_t>(truth.NumTasks()), 0);
  for (int task : obs.observed_tasks) {
    task_observed[static_cast<std::size_t>(task)] = 1;
  }
  std::vector<int> unobserved_tasks;
  for (int task = 0; task < truth.NumTasks(); ++task) {
    if (task_observed[static_cast<std::size_t>(task)] == 0) {
      unobserved_tasks.push_back(task);
    }
  }
  GibbsSampler sampler(InitializeFeasible(truth, obs, rates, rng), obs, rates);
  const std::vector<EventId> route_latents =
      RouteLatentEvents(sampler.State(), unobserved_tasks);
  ASSERT_FALSE(route_latents.empty());

  RouteMhStats stats;
  for (int round = 0; round < 12; ++round) {
    sampler.Sweep(rng);
    const RouteMhStats round_stats =
        RouteMhSweep(sampler.MutableState(), route_latents, net.GetFsm(), rates, rng);
    stats.proposed += round_stats.proposed;
    stats.accepted += round_stats.accepted;
    std::string why;
    ASSERT_TRUE(sampler.State().IsFeasible(1e-6, &why)) << "round " << round << ": " << why;
  }
  // Tier-0 has a single server: its events are skipped (no alternatives); tier-1 events
  // should see a healthy acceptance rate under symmetric rates.
  EXPECT_GT(stats.AcceptanceRate(), 0.1);
  // Observed times remain pinned.
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    if (obs.ArrivalObserved(e)) {
      EXPECT_DOUBLE_EQ(sampler.State().Arrival(e), truth.Arrival(e));
    }
  }
}

// A reroute through MutableState() changes the link structure that a sweep schedule's
// coloring and move geometry were built on. The next Sweep must rebuild whichever
// scheduler the sampler drives, so k further sweeps equal, bit for bit, those of a
// sampler freshly built on the mutated state with the same RNG — for the sampler's owned
// scheduler and for a caller-owned one (UseScheduler).
TEST(RouteMh, SweepsAfterRerouteMatchAFreshSamplerForEverySchedulerKind) {
  ThreeTierConfig config;
  config.tier_sizes = {1, 3};
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  const auto rates = net.ExponentialRates();
  Rng setup_rng(17);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(10.0, 150), setup_rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.3;
  const Observation obs = scheme.Apply(truth, setup_rng);
  const EventLog init = InitializeFeasible(truth, obs, rates, setup_rng);
  std::vector<char> task_observed(static_cast<std::size_t>(truth.NumTasks()), 0);
  for (int task : obs.observed_tasks) {
    task_observed[static_cast<std::size_t>(task)] = 1;
  }
  std::vector<int> unobserved_tasks;
  for (int task = 0; task < truth.NumTasks(); ++task) {
    if (task_observed[static_cast<std::size_t>(task)] == 0) {
      unobserved_tasks.push_back(task);
    }
  }
  const std::vector<EventId> route_latents = RouteLatentEvents(init, unobserved_tasks);
  ASSERT_FALSE(route_latents.empty());

  for (const bool caller_owned : {false, true}) {
    SCOPED_TRACE(testing::Message() << "caller-owned " << caller_owned);
    // Declared before the samplers that borrow them.
    ShardedSweepScheduler external;
    ShardedSweepScheduler fresh_external;
    const auto attach = [&](GibbsSampler& sampler, ShardedSweepScheduler& scheduler) {
      if (caller_owned) {
        sampler.UseScheduler(&scheduler);
      }
    };
    GibbsSampler sampler(init, obs, rates);
    attach(sampler, external);
    Rng rng(23);
    for (int sweep = 0; sweep < 3; ++sweep) {
      sampler.Sweep(rng);
    }
    const RouteMhStats stats =
        RouteMhSweep(sampler.MutableState(), route_latents, net.GetFsm(), rates, rng);
    ASSERT_GT(stats.accepted, 0u) << "no reroute, nothing to test";

    GibbsSampler fresh(sampler.State(), obs, rates);
    attach(fresh, fresh_external);
    Rng rng_fresh = rng;
    for (int sweep = 0; sweep < 4; ++sweep) {
      sampler.Sweep(rng);
      fresh.Sweep(rng_fresh);
    }
    for (EventId e = 0; static_cast<std::size_t>(e) < init.NumEvents(); ++e) {
      ASSERT_EQ(sampler.State().Arrival(e), fresh.State().Arrival(e)) << "event " << e;
      ASSERT_EQ(sampler.State().Departure(e), fresh.State().Departure(e)) << "event " << e;
    }
    std::string why;
    EXPECT_TRUE(sampler.State().IsFeasible(1e-6, &why)) << why;
  }
}

TEST(RouteMh, SingleEmissionStatesAreSkipped) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 4.0});
  const auto rates = net.ExponentialRates();
  Rng rng(13);
  EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 20), rng);
  const EventId e = log.TaskEvents(0)[1];
  EXPECT_FALSE(ProposeQueueReassignment(log, e, net.GetFsm(), rates, rng));
  EXPECT_EQ(log.At(e).queue, 1);
}

}  // namespace
}  // namespace qnet
