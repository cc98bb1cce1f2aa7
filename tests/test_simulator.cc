// Simulator validation: FIFO/event-graph invariants, agreement with classical M/M/1
// steady-state theory, Little's law, network composition, fault injection, and the
// SimScratch arena's logs pinned to goldens and across its entry points.

#include "qnet/sim/simulator.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "qnet/infer/mm1.h"
#include "qnet/model/builders.h"
#include "qnet/sim/sim_scratch.h"
#include "qnet/support/check.h"
#include "qnet/support/math.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

TEST(Simulator, ProducesFeasibleLogs) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 5.0});
  Rng rng(3);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 500), rng);
  EXPECT_EQ(log.NumTasks(), 500);
  EXPECT_EQ(log.NumEvents(), 1500u);
  std::string why;
  EXPECT_TRUE(log.IsFeasible(1e-9, &why)) << why;
}

TEST(Simulator, ReproducibleWithSameSeed) {
  const QueueingNetwork net = MakeSingleQueueNetwork(3.0, 5.0);
  Rng rng_a(17);
  Rng rng_b(17);
  const EventLog a = SimulateWorkload(net, PoissonArrivals(3.0, 200), rng_a);
  const EventLog b = SimulateWorkload(net, PoissonArrivals(3.0, 200), rng_b);
  ASSERT_EQ(a.NumEvents(), b.NumEvents());
  for (EventId e = 0; static_cast<std::size_t>(e) < a.NumEvents(); ++e) {
    EXPECT_DOUBLE_EQ(a.Arrival(e), b.Arrival(e));
    EXPECT_DOUBLE_EQ(a.Departure(e), b.Departure(e));
  }
}

class Mm1TheoryTest : public ::testing::TestWithParam<double> {};

TEST_P(Mm1TheoryTest, MeanWaitMatchesSteadyState) {
  // Single M/M/1 queue, utilization from the parameter; long run, discard warmup.
  const double mu = 10.0;
  const double lambda = GetParam() * mu;
  const QueueingNetwork net = MakeSingleQueueNetwork(lambda, mu);
  Rng rng(29);
  const std::size_t tasks = 60000;
  const EventLog log = SimulateWorkload(net, PoissonArrivals(lambda, tasks), rng);

  const Mm1Metrics theory = AnalyzeMm1(lambda, mu);
  ASSERT_TRUE(theory.stable);
  RunningStat wait;
  RunningStat service;
  const auto& order = log.QueueOrder(1);
  for (std::size_t i = order.size() / 5; i < order.size(); ++i) {  // skip warmup fifth
    wait.Add(log.WaitTime(order[i]));
    service.Add(log.ServiceTime(order[i]));
  }
  EXPECT_NEAR(service.Mean(), 1.0 / mu, 0.15 / mu) << "rho=" << GetParam();
  // Queueing means converge slowly at high rho; scale tolerance with the value itself.
  EXPECT_NEAR(wait.Mean(), theory.mean_wait, 0.2 * theory.mean_wait + 0.01)
      << "rho=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Utilizations, Mm1TheoryTest, ::testing::Values(0.3, 0.5, 0.7, 0.85));

TEST(Simulator, LittlesLawHoldsOnTandem) {
  const double lambda = 3.0;
  const QueueingNetwork net = MakeTandemNetwork(lambda, {6.0, 8.0});
  Rng rng(31);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(lambda, 40000), rng);
  // L = lambda_eff * W per queue, measured over the busy horizon.
  for (int q = 1; q <= 2; ++q) {
    const auto& order = log.QueueOrder(q);
    const double horizon = log.Departure(order.back());
    double total_response = 0.0;
    for (EventId e : order) {
      total_response += log.ResponseTime(e);
    }
    const double mean_in_system = total_response / horizon;  // time-average L
    const double lambda_eff = static_cast<double>(order.size()) / horizon;
    const double mean_response = total_response / static_cast<double>(order.size());
    EXPECT_NEAR(mean_in_system, lambda_eff * mean_response, 1e-9);  // identity by algebra
    // And against theory:
    const Mm1Metrics theory = AnalyzeMm1(lambda, q == 1 ? 6.0 : 8.0);
    EXPECT_NEAR(mean_response, theory.mean_response, 0.15 * theory.mean_response)
        << "queue " << q;
  }
}

TEST(Simulator, OverloadedQueueGrowsLinearly) {
  // rho = 2: backlog grows at rate (lambda - mu); waiting times trend upward.
  const QueueingNetwork net = MakeSingleQueueNetwork(10.0, 5.0);
  Rng rng(37);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(10.0, 4000), rng);
  const auto& order = log.QueueOrder(1);
  double early = 0.0;
  double late = 0.0;
  const std::size_t quarter = order.size() / 4;
  for (std::size_t i = 0; i < quarter; ++i) {
    early += log.WaitTime(order[i]);
    late += log.WaitTime(order[order.size() - 1 - i]);
  }
  EXPECT_GT(late / early, 2.0);
  // Departure rate of the bottleneck ~ mu: exit horizon ~ tasks/mu.
  const double horizon = log.Departure(order.back());
  EXPECT_NEAR(horizon, 4000.0 / 5.0, 0.15 * 800.0);
}

TEST(Simulator, ThreeTierRoutesBalanceAcrossServers) {
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  Rng rng(41);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(10.0, 8000), rng);
  const auto counts = log.PerQueueCount();
  EXPECT_EQ(counts[1], 8000u);  // single front server sees everything
  for (int q = 2; q <= 3; ++q) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<std::size_t>(q)]), 4000.0, 300.0);
  }
  for (int q = 4; q <= 7; ++q) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<std::size_t>(q)]), 2000.0, 250.0);
  }
}

TEST(Simulator, FaultInjectionRaisesServiceInWindowOnly) {
  const QueueingNetwork net = MakeSingleQueueNetwork(1.0, 10.0);
  FaultSchedule faults;
  faults.AddSlowdown(1, 100.0, 200.0, 8.0);
  SimOptions options;
  options.faults = &faults;
  Rng rng(43);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 3000), rng, options);
  RunningStat inside;
  RunningStat outside;
  for (EventId e : log.QueueOrder(1)) {
    const double begin = log.BeginService(e);
    (begin >= 100.0 && begin < 200.0 ? inside : outside).Add(log.ServiceTime(e));
  }
  ASSERT_GT(inside.Count(), 20u);
  EXPECT_NEAR(outside.Mean(), 0.1, 0.02);
  EXPECT_NEAR(inside.Mean(), 0.8, 0.25);
}

TEST(Simulator, FeedbackNetworkRevisitsAreFeasible) {
  const QueueingNetwork net = MakeFeedbackNetwork(1.0, 4.0, 0.5);
  Rng rng(47);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 2000), rng);
  std::string why;
  EXPECT_TRUE(log.IsFeasible(1e-9, &why)) << why;
  // Mean visits per task = 1/(1-p) = 2.
  const double visits =
      static_cast<double>(log.NumEvents() - static_cast<std::size_t>(log.NumTasks())) /
      static_cast<double>(log.NumTasks());
  EXPECT_NEAR(visits, 2.0, 0.1);
}

TEST(Simulator, SimulateWithRoutesHonorsGivenRoutes) {
  const QueueingNetwork net = MakeTandemNetwork(1.0, {3.0, 3.0});
  // Degenerate route: both tasks visit only queue 2.
  const std::vector<std::vector<RouteStep>> routes = {{{1, 2}}, {{1, 2}}};
  Rng rng(53);
  const EventLog log = SimulateWithRoutes(net, {1.0, 2.0}, routes, rng);
  const auto counts = log.PerQueueCount();
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 2u);
}

void ExpectLogsBitIdentical(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.NumQueues(), b.NumQueues());
  ASSERT_EQ(a.NumTasks(), b.NumTasks());
  ASSERT_EQ(a.NumEvents(), b.NumEvents());
  for (EventId e = 0; static_cast<std::size_t>(e) < a.NumEvents(); ++e) {
    ASSERT_EQ(a.At(e).task, b.At(e).task);
    ASSERT_EQ(a.At(e).state, b.At(e).state);
    ASSERT_EQ(a.At(e).queue, b.At(e).queue);
    // EXPECT_EQ (not DOUBLE_EQ): the arena path promises bitwise identity, not closeness.
    ASSERT_EQ(a.Arrival(e), b.Arrival(e));
    ASSERT_EQ(a.Departure(e), b.Departure(e));
  }
  for (int q = 1; q < a.NumQueues(); ++q) {
    ASSERT_EQ(a.QueueOrder(q), b.QueueOrder(q));
  }
}

// Fixtures covering the route shapes the DES meets in practice: fixed-length chains, a
// feedback loop with geometric route lengths, and a fork across replicated servers.
std::vector<QueueingNetwork> ScratchFixtures() {
  std::vector<QueueingNetwork> nets;
  nets.push_back(MakeSingleQueueNetwork(3.0, 5.0));
  nets.push_back(MakeTandemNetwork(2.0, {4.0, 5.0}));
  nets.push_back(MakeFeedbackNetwork(1.0, 4.0, 0.5));
  ThreeTierConfig config;
  config.tier_sizes = {2, 2};
  nets.push_back(MakeThreeTierNetwork(config));
  return nets;
}

// Per-queue (wait sum over QueueOrder, last departure) of each ScratchFixtures network
// under PoissonArrivals(1.0, 300) with Rng(91): arrivals, routes sampled task by task,
// then services in DES pop order. Recorded as hex floats from an all-arrivals
// std::priority_queue simulator that consumed the same draws, before the arena became
// the only DES core.
struct QueueGolden {
  double wait_sum;
  double last_departure;
};
const std::vector<std::vector<QueueGolden>> kDesGoldens = {
    {{0x1.2cb55bc1a8bc8p+4, 0x1.148090c0e5b41p+8}},
    {{0x1.3986ffc26bde4p+5, 0x1.146512472d23p+8},
     {0x1.386cba451dbcap+4, 0x1.146db346b3357p+8}},
    {{0x1.88ee1b62b52b5p+7, 0x1.163b00e41e3aap+8}},
    {{0x1.800b23afb8c98p+1, 0x1.145fa6577a745p+8},
     {0x1.3813f4dc85f9ep+2, 0x1.1327345bf042dp+8},
     {0x1.5b79a5645a8fp+0, 0x1.146847570086cp+8},
     {0x1.f77d916a09363p+2, 0x1.136b8d173abc6p+8}},
};

TEST(SimScratchPath, HandSampledRoutesMatchGoldensAndSimulateWorkload) {
  const std::vector<QueueingNetwork> nets = ScratchFixtures();
  ASSERT_EQ(nets.size(), kDesGoldens.size());
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const QueueingNetwork& net = nets[n];
    SCOPED_TRACE(net.NumQueues());
    const PoissonArrivals workload(1.0, 300);
    // Entries and per-task route vectors sampled by hand, in the draw order
    // SimulateWorkload uses (arrivals, then routes task by task), so a same-seeded Rng
    // then draws the same services and must yield the same log.
    Rng rng_routes(91);
    const std::vector<double> entries = workload.Generate(rng_routes);
    std::vector<std::vector<RouteStep>> routes;
    routes.reserve(entries.size());
    for (std::size_t k = 0; k < entries.size(); ++k) {
      routes.push_back(net.GetFsm().SampleRoute(rng_routes));
    }
    const EventLog with_routes = SimulateWithRoutes(net, entries, routes, rng_routes);

    ASSERT_EQ(static_cast<std::size_t>(net.NumQueues()), kDesGoldens[n].size() + 1);
    for (int q = 1; q < net.NumQueues(); ++q) {
      const QueueGolden& golden = kDesGoldens[n][static_cast<std::size_t>(q - 1)];
      double wait_sum = 0.0;
      for (const EventId e : with_routes.QueueOrder(q)) {
        wait_sum += with_routes.WaitTime(e);
      }
      ASSERT_FALSE(with_routes.QueueOrder(q).empty()) << "queue " << q;
      EXPECT_EQ(wait_sum, golden.wait_sum) << "queue " << q;
      EXPECT_EQ(with_routes.Departure(with_routes.QueueOrder(q).back()),
                golden.last_departure)
          << "queue " << q;
    }

    Rng rng_scratch(91);
    SimScratch scratch;
    SimulateWorkloadIntoScratch(net, workload, scratch, rng_scratch);
    EventLog from_scratch(net.NumQueues());
    ScratchToEventLog(scratch, net.NumQueues(), from_scratch);
    ExpectLogsBitIdentical(with_routes, from_scratch);

    Rng rng_public(91);
    const EventLog from_public = SimulateWorkload(net, workload, rng_public);
    ExpectLogsBitIdentical(with_routes, from_public);
  }
}

TEST(Simulator, SimulateWithRoutesRejectsBadInput) {
  const QueueingNetwork net = MakeTandemNetwork(1.0, {3.0, 3.0});
  const std::vector<std::vector<RouteStep>> one = {{{1, 1}}};
  const std::vector<std::vector<RouteStep>> two = {{{1, 1}}, {{1, 1}}};
  Rng rng(5);
  EXPECT_THROW(SimulateWithRoutes(net, {1.0, 2.0}, one, rng), Error);  // route count
  EXPECT_THROW(SimulateWithRoutes(net, {0.0}, one, rng), Error);       // not positive
  EXPECT_THROW(SimulateWithRoutes(net, {2.0, 1.0}, two, rng), Error);  // decreasing
  EXPECT_THROW(SimulateWithRoutes(net, {1.0, 2.0}, {{{1, 1}}, {}}, rng), Error);  // empty
  // A valid call after the rejected ones still simulates from a clean arena.
  const EventLog log = SimulateWithRoutes(net, {1.0, 2.0}, two, rng);
  EXPECT_EQ(log.NumTasks(), 2);
  EXPECT_EQ(log.PerQueueCount()[1], 2u);
}

TEST(SimScratchPath, ReusedScratchMatchesFreshScratch) {
  // One arena dragged across differently-shaped networks (dirty offsets, oversized
  // buffers, stale heap capacity) must behave exactly like a fresh arena per run.
  SimScratch reused;
  for (const QueueingNetwork& net : ScratchFixtures()) {
    SCOPED_TRACE(net.NumQueues());
    const PoissonArrivals workload(1.0, 250);
    Rng rng_reused(7);
    Rng rng_fresh(7);
    SimulateWorkloadIntoScratch(net, workload, reused, rng_reused);
    SimScratch fresh;
    SimulateWorkloadIntoScratch(net, workload, fresh, rng_fresh);
    ASSERT_EQ(reused.NumTasks(), fresh.NumTasks());
    EXPECT_EQ(reused.entry_times, fresh.entry_times);
    EXPECT_EQ(reused.route_offsets, fresh.route_offsets);
    EXPECT_EQ(reused.step_begin, fresh.step_begin);
    EXPECT_EQ(reused.step_departure, fresh.step_departure);
    EXPECT_EQ(reused.queue_wait_sum, fresh.queue_wait_sum);
    EXPECT_EQ(reused.queue_busy_sum, fresh.queue_busy_sum);
  }
}

TEST(SimScratchPath, ReusedEventLogMatchesFresh) {
  const QueueingNetwork feedback = MakeFeedbackNetwork(1.0, 4.0, 0.5);
  const QueueingNetwork tandem = MakeTandemNetwork(2.0, {4.0, 5.0});
  SimScratch scratch;
  EventLog reused(feedback.NumQueues());
  // Fill the reused log with a bigger, differently-shaped run first so Reset has real
  // stale state (more tasks, more queues, longer routes) to neutralize.
  {
    Rng rng(11);
    SimulateWorkloadIntoScratch(feedback, PoissonArrivals(1.0, 400), scratch, rng);
    ScratchToEventLog(scratch, feedback.NumQueues(), reused);
  }
  Rng rng_a(13);
  Rng rng_b(13);
  SimulateWorkloadIntoScratch(tandem, PoissonArrivals(2.0, 100), scratch, rng_a);
  ScratchToEventLog(scratch, tandem.NumQueues(), reused);
  SimScratch scratch_b;
  SimulateWorkloadIntoScratch(tandem, PoissonArrivals(2.0, 100), scratch_b, rng_b);
  EventLog fresh(tandem.NumQueues());
  ScratchToEventLog(scratch_b, tandem.NumQueues(), fresh);
  ExpectLogsBitIdentical(fresh, reused);
}

TEST(Mm1, AnalyticFormulas) {
  const Mm1Metrics m = AnalyzeMm1(5.0, 10.0);
  EXPECT_TRUE(m.stable);
  EXPECT_DOUBLE_EQ(m.utilization, 0.5);
  EXPECT_DOUBLE_EQ(m.mean_response, 0.2);
  EXPECT_DOUBLE_EQ(m.mean_wait, 0.1);
  EXPECT_DOUBLE_EQ(m.mean_in_system, 1.0);
  const Mm1Metrics overloaded = AnalyzeMm1(10.0, 5.0);
  EXPECT_FALSE(overloaded.stable);
  EXPECT_DOUBLE_EQ(overloaded.utilization, 2.0);
}

}  // namespace
}  // namespace qnet
