// Online (sliding-window) StEM: window extraction correctness and rate tracking across a
// workload/service change. A batch log runs through the streaming estimator as a
// LogReplayStream.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/fault.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

StreamingEstimatorOptions WindowedStemOptions(double window_duration) {
  StreamingEstimatorOptions options;
  options.window.window_duration = window_duration;
  options.stem.iterations = 40;
  options.stem.burn_in = 15;
  options.stem.wait_sweeps = 0;
  return options;
}

// Windowed StEM over a whole batch log, its seed drawn from `rng`.
std::vector<WindowEstimate> RunWindowedStem(const EventLog& truth, const Observation& obs,
                                            Rng& rng,
                                            const StreamingEstimatorOptions& options) {
  LogReplayStream stream(truth, obs);
  StreamingEstimator estimator({1.0, 1.0}, rng.NextU64(), options);
  return estimator.Run(stream);
}

TEST(ExtractTaskWindow, PreservesTimesLinksAndFlags) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(3);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 60), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.4;
  const Observation obs = scheme.Apply(truth, rng);

  const std::vector<int> tasks = {10, 11, 12, 13, 14, 20, 21};
  const auto [window, window_obs] = ExtractTaskWindow(truth, obs, tasks);
  EXPECT_EQ(window.NumTasks(), 7);
  std::string why;
  EXPECT_TRUE(window.IsFeasible(1e-9, &why)) << why;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const int wk = static_cast<int>(i);
    EXPECT_DOUBLE_EQ(window.TaskEntryTime(wk), truth.TaskEntryTime(tasks[i]));
    EXPECT_DOUBLE_EQ(window.TaskExitTime(wk), truth.TaskExitTime(tasks[i]));
    // Arrival observation flags carried over per event.
    const auto& old_chain = truth.TaskEvents(tasks[i]);
    const auto& new_chain = window.TaskEvents(wk);
    ASSERT_EQ(old_chain.size(), new_chain.size());
    for (std::size_t j = 1; j < old_chain.size(); ++j) {
      EXPECT_EQ(window_obs.ArrivalObserved(new_chain[j]), obs.ArrivalObserved(old_chain[j]));
    }
  }
  window_obs.Validate(window);
}

TEST(ExtractTaskWindow, SingleTaskWindow) {
  // Boundary invariant: a one-task window is a valid log — initial event anchored at 0,
  // links rebuilt, observation consistent.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(17);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 30), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, rng);

  const auto [window, window_obs] = ExtractTaskWindow(truth, obs, {12});
  ASSERT_EQ(window.NumTasks(), 1);
  std::string why;
  EXPECT_TRUE(window.IsFeasible(1e-9, &why)) << why;
  EXPECT_DOUBLE_EQ(window.TaskEntryTime(0), truth.TaskEntryTime(12));
  EXPECT_DOUBLE_EQ(window.TaskExitTime(0), truth.TaskExitTime(12));
  const auto& chain = window.TaskEvents(0);
  ASSERT_EQ(chain.size(), truth.TaskEvents(12).size());
  // With every cross-task neighbor cut away, each event's rho/nu links stay within the
  // task's own queue visits (no dangling ids).
  for (const EventId e : chain) {
    const Event& ev = window.At(e);
    if (ev.rho != kNoEvent) {
      EXPECT_EQ(window.At(ev.rho).task, 0);
    }
    if (ev.nu != kNoEvent) {
      EXPECT_EQ(window.At(ev.nu).task, 0);
    }
  }
  window_obs.Validate(window);
}

TEST(ExtractTaskWindow, RederivesDepartureFlagsAndKeepsFinalOnes) {
  // Departure flags are the same physical measurement as the successor's arrival, so the
  // window re-derives every internal departure flag from its successor arrival flag; only
  // each task's *final* departure flag (nobody's arrival) carries over from the source.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(19);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 40), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  scheme.observe_final_departure = false;  // exercises the unobserved-final-exit corner
  const Observation obs = scheme.Apply(truth, rng);

  const std::vector<int> tasks = {5, 6, 7, 20, 21};
  const auto [window, window_obs] = ExtractTaskWindow(truth, obs, tasks);
  for (int wk = 0; wk < window.NumTasks(); ++wk) {
    const auto& chain = window.TaskEvents(wk);
    for (std::size_t i = 1; i < chain.size(); ++i) {
      const Event& ev = window.At(chain[i]);
      EXPECT_EQ(window_obs.DepartureObserved(ev.pi), window_obs.ArrivalObserved(chain[i]))
          << "task " << wk << " step " << i;
    }
    // Final departure: carried from the source, here never observed.
    EXPECT_EQ(window_obs.DepartureObserved(chain.back()),
              obs.DepartureObserved(truth.TaskEvents(tasks[static_cast<std::size_t>(wk)]).back()));
    EXPECT_FALSE(window_obs.DepartureObserved(chain.back()));
  }
  window_obs.Validate(window);
}

TEST(ExtractTaskWindow, ReconstructsObservedTasks) {
  // observed_tasks must be exactly the window-renumbered source observed tasks that made
  // it into the window, in sorted order.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(23);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 50), rng);
  TaskSamplingScheme scheme;
  const Observation obs = scheme.ApplyToTasks(truth, {2, 3, 9, 30, 31});

  const std::vector<int> tasks = {3, 4, 9, 10, 30};
  const auto [window, window_obs] = ExtractTaskWindow(truth, obs, tasks);
  // Source observed tasks inside the window: 3 -> 0, 9 -> 2, 30 -> 4.
  const std::vector<int> expected = {0, 2, 4};
  EXPECT_EQ(window_obs.observed_tasks, expected);
  for (const int wk : window_obs.observed_tasks) {
    const auto& chain = window.TaskEvents(wk);
    for (std::size_t i = 1; i < chain.size(); ++i) {
      EXPECT_TRUE(window_obs.ArrivalObserved(chain[i]));
    }
  }
}

TEST(ExtractTaskWindow, RejectsUnsortedTasks) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0});
  Rng rng(5);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 10), rng);
  const Observation obs = Observation::FullyObserved(truth);
  EXPECT_THROW(ExtractTaskWindow(truth, obs, {3, 1}), Error);
  EXPECT_THROW(ExtractTaskWindow(truth, obs, {}), Error);
}

TEST(OnlineStem, ProducesPerWindowEstimates) {
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 8.0);
  Rng rng(7);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 600), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, rng);

  const auto estimates = RunWindowedStem(truth, obs, rng, WindowedStemOptions(30.0));
  ASSERT_GE(estimates.size(), 3u);
  for (const auto& window : estimates) {
    EXPECT_GT(window.tasks, 0u);
    ASSERT_EQ(window.rates.size(), 2u);
    EXPECT_NEAR(1.0 / window.rates[1], 1.0 / 8.0, 0.08) << "window at " << window.t0;
  }
}

TEST(OnlineStem, TracksMidStreamServiceDegradation) {
  // The queue slows down 4x halfway through; window estimates should reflect it.
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 10.0);
  FaultSchedule faults;
  faults.AddSlowdown(1, 150.0, 1.0e9, 4.0);
  SimOptions sim_options;
  sim_options.faults = &faults;
  Rng rng(11);
  const EventLog truth =
      Simulate(net, PoissonArrivals(2.0, 600).Generate(rng), rng, sim_options);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.6;
  const Observation obs = scheme.Apply(truth, rng);

  const auto estimates = RunWindowedStem(truth, obs, rng, WindowedStemOptions(75.0));
  ASSERT_GE(estimates.size(), 3u);
  const auto& first = estimates.front();
  const auto& last = estimates.back();
  const double early_service = 1.0 / first.rates[1];
  const double late_service = 1.0 / last.rates[1];
  EXPECT_NEAR(early_service, 0.1, 0.05);
  EXPECT_GT(late_service, 2.0 * early_service);
}

}  // namespace
}  // namespace qnet
