// Tests for the event-graph data structure: link construction, derived quantities, the
// feasibility checker, the joint density of eq. (1), and queue reassignment.

#include "qnet/model/event.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "qnet/dist/exponential.h"
#include "qnet/model/builders.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/check.h"
#include "qnet/support/logspace.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

// Hand-built scenario on one queue (id 1), two tasks:
//   task 0: enters at 1.0, arrives q1 at 1.0, departs 3.0  (service 2.0, wait 0)
//   task 1: enters at 2.0, arrives q1 at 2.0, departs 4.0  (service 1.0, wait 1.0 — FIFO)
EventLog MakeTwoTaskLog() {
  EventLog log(2);
  log.AddTask(1.0);
  log.AddTask(2.0);
  log.AddVisit(0, 0, 1, 1.0, 3.0);
  log.AddVisit(1, 0, 1, 2.0, 4.0);
  log.BuildQueueLinks();
  return log;
}

TEST(EventLog, ShapeAndLinks) {
  const EventLog log = MakeTwoTaskLog();
  EXPECT_EQ(log.NumTasks(), 2);
  EXPECT_EQ(log.NumEvents(), 4u);  // 2 initial + 2 visits
  EXPECT_EQ(log.NumQueues(), 2);

  const auto& t0 = log.TaskEvents(0);
  const auto& t1 = log.TaskEvents(1);
  ASSERT_EQ(t0.size(), 2u);
  ASSERT_EQ(t1.size(), 2u);
  EXPECT_TRUE(log.At(t0[0]).initial);
  EXPECT_EQ(log.At(t0[1]).pi, t0[0]);
  EXPECT_EQ(log.At(t0[0]).tau, t0[1]);

  // Queue 1 arrival order: task0's visit then task1's visit.
  const auto& order = log.QueueOrder(1);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], t0[1]);
  EXPECT_EQ(order[1], t1[1]);
  EXPECT_EQ(log.At(order[1]).rho, order[0]);
  EXPECT_EQ(log.At(order[0]).nu, order[1]);
  EXPECT_EQ(log.At(order[0]).rho, kNoEvent);
  EXPECT_EQ(log.At(order[1]).nu, kNoEvent);

  // Queue 0 (initial events) ordered by task.
  const auto& q0 = log.QueueOrder(0);
  ASSERT_EQ(q0.size(), 2u);
  EXPECT_EQ(q0[0], t0[0]);
  EXPECT_EQ(q0[1], t1[0]);
}

TEST(EventLog, DerivedTimesMatchHandComputation) {
  const EventLog log = MakeTwoTaskLog();
  const EventId e0 = log.TaskEvents(0)[1];
  const EventId e1 = log.TaskEvents(1)[1];
  EXPECT_DOUBLE_EQ(log.BeginService(e0), 1.0);
  EXPECT_DOUBLE_EQ(log.ServiceTime(e0), 2.0);
  EXPECT_DOUBLE_EQ(log.WaitTime(e0), 0.0);
  EXPECT_DOUBLE_EQ(log.ResponseTime(e0), 2.0);
  // Task 1 queues behind task 0: service starts at 3.0.
  EXPECT_DOUBLE_EQ(log.BeginService(e1), 3.0);
  EXPECT_DOUBLE_EQ(log.ServiceTime(e1), 1.0);
  EXPECT_DOUBLE_EQ(log.WaitTime(e1), 1.0);

  // Initial events: interarrival "services" are the entry gaps.
  const EventId i0 = log.TaskEvents(0)[0];
  const EventId i1 = log.TaskEvents(1)[0];
  EXPECT_DOUBLE_EQ(log.ServiceTime(i0), 1.0);  // first entry at 1.0
  EXPECT_DOUBLE_EQ(log.ServiceTime(i1), 1.0);  // gap 2.0 - 1.0
  EXPECT_DOUBLE_EQ(log.TaskEntryTime(1), 2.0);
  EXPECT_DOUBLE_EQ(log.TaskExitTime(1), 4.0);
}

TEST(EventLog, PerQueueSummaries) {
  const EventLog log = MakeTwoTaskLog();
  const auto mean_service = log.PerQueueMeanService();
  const auto mean_wait = log.PerQueueMeanWait();
  const auto counts = log.PerQueueCount();
  const auto sums = log.PerQueueServiceSum();
  EXPECT_DOUBLE_EQ(mean_service[1], 1.5);
  EXPECT_DOUBLE_EQ(mean_wait[1], 0.5);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_DOUBLE_EQ(sums[1], 3.0);
  EXPECT_DOUBLE_EQ(sums[0], 2.0);
}

TEST(EventLog, PerQueueServiceSumIntoAddsServiceTimesInEventIdOrder) {
  // StEM's M-step statistic: both forms must add exactly ServiceTime(e) in event-id
  // order, so the fitted rates are bitwise those of a plain scan.
  Rng rng(3);
  const EventLog log = SimulateWorkload(MakeTandemNetwork(2.0, {4.0, 3.0}),
                                        PoissonArrivals(2.0, 200), rng);
  std::vector<double> expected(static_cast<std::size_t>(log.NumQueues()), 0.0);
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    expected[static_cast<std::size_t>(log.At(e).queue)] += log.ServiceTime(e);
  }
  std::vector<double> sums(expected.size(), -1.0);  // overwritten, not added to
  log.PerQueueServiceSumInto(sums);
  EXPECT_EQ(sums, expected);
  EXPECT_EQ(log.PerQueueServiceSum(), expected);
  std::vector<double> too_short(expected.size() - 1);
  EXPECT_THROW(log.PerQueueServiceSumInto(too_short), Error);
}

TEST(EventLog, FeasibilityDetectsViolations) {
  EventLog log = MakeTwoTaskLog();
  EXPECT_TRUE(log.IsFeasible());

  // Negative service time: departure before begin-service.
  EventLog bad_service = log;
  bad_service.SetDeparture(log.TaskEvents(1)[1], 2.5);  // begins at 3.0
  std::string why;
  EXPECT_FALSE(bad_service.IsFeasible(1e-9, &why));
  EXPECT_NE(why.find("service"), std::string::npos);

  // Task continuity: arrival != pi departure.
  EventLog bad_continuity = log;
  bad_continuity.SetArrival(log.TaskEvents(0)[1], 1.5);
  EXPECT_FALSE(bad_continuity.IsFeasible(1e-9, &why));
  EXPECT_NE(why.find("continuity"), std::string::npos);

  // Arrival-order violation within the queue.
  EventLog bad_order = log;
  bad_order.SetArrival(log.TaskEvents(1)[1], 0.5);
  bad_order.SetDeparture(log.TaskEvents(1)[0], 0.5);
  EXPECT_FALSE(bad_order.IsFeasible(1e-9, &why));

  // FIFO departure-order violation (surfaces as a negative service time at the successor,
  // since d_e >= d_rho(e) is implied by s_e >= 0).
  EventLog bad_fifo = log;
  bad_fifo.SetDeparture(log.TaskEvents(0)[1], 4.5);  // now departs after task 1 (4.0)
  EXPECT_FALSE(bad_fifo.IsFeasible(1e-9, &why));
}

TEST(EventLog, LogJointTimesMatchesHandComputation) {
  const EventLog log = MakeTwoTaskLog();
  QueueingNetwork net(std::make_unique<Exponential>(2.0));   // lambda = 2
  net.AddQueue("q", std::make_unique<Exponential>(0.5));     // mu = 0.5
  // Services: q0: {1.0, 1.0}; q1: {2.0, 1.0}.
  const double expected = (std::log(2.0) - 2.0 * 1.0) * 2 +
                          (std::log(0.5) - 0.5 * 2.0) + (std::log(0.5) - 0.5 * 1.0);
  EXPECT_NEAR(log.LogJointTimes(net), expected, 1e-12);
}

TEST(EventLog, ConstructionGuards) {
  EventLog log(2);
  log.AddTask(1.0);
  EXPECT_THROW(log.AddTask(0.5), Error);            // entry times must be ordered
  EXPECT_THROW(log.AddVisit(0, 0, 0, 1.0, 2.0), Error);  // queue 0 reserved
  EXPECT_THROW(log.AddVisit(0, 0, 1, 1.5, 2.0), Error);  // arrival != entry time
  EXPECT_THROW(log.AddVisit(0, 0, 1, 1.0, 0.5), Error);  // departure < arrival
  log.AddVisit(0, 0, 1, 1.0, 2.0);
  log.BuildQueueLinks();
  EXPECT_THROW(log.BuildQueueLinks(), Error);       // links built twice
  EXPECT_THROW(log.AddTask(5.0), Error);            // frozen after links
}

TEST(EventLog, TaskRouteExcludesInitialEvent) {
  const EventLog log = MakeTwoTaskLog();
  const auto route = log.TaskRoute(0);
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(route[0].state, 0);
  EXPECT_EQ(route[0].queue, 1);
}

TEST(EventLog, RevisitsLinkWithinTask) {
  // One task visits queue 1 twice in a row — the feedback-network shape.
  EventLog log(2);
  log.AddTask(1.0);
  log.AddVisit(0, 0, 1, 1.0, 2.0);
  log.AddVisit(0, 0, 1, 2.0, 3.5);
  log.BuildQueueLinks();
  EXPECT_TRUE(log.IsFeasible());
  const auto& chain = log.TaskEvents(0);
  ASSERT_EQ(chain.size(), 3u);
  // Second visit's within-queue predecessor is the first visit (same task).
  EXPECT_EQ(log.At(chain[2]).rho, chain[1]);
  EXPECT_EQ(log.At(chain[2]).pi, chain[1]);
  EXPECT_DOUBLE_EQ(log.ServiceTime(chain[2]), 1.5);
}

TEST(EventLog, CopyIsIndependent) {
  const EventLog log = MakeTwoTaskLog();
  EventLog copy = log;
  copy.SetDeparture(copy.TaskEvents(0)[1], 3.3);
  EXPECT_DOUBLE_EQ(log.Departure(log.TaskEvents(0)[1]), 3.0);
  EXPECT_DOUBLE_EQ(copy.Departure(copy.TaskEvents(0)[1]), 3.3);
}

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

}  // namespace
}  // namespace qnet
