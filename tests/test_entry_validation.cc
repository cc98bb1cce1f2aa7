// Non-finite entry times at the stream boundary. A +inf entry once drove the window
// close loop's fast-forward bound to infinity, so the stream hung forever; a NaN never
// compares into any window. Both must be rejected with qnet::Error before they touch
// any state — by the span tracker, the plain StreamingEstimator, and the lane fleet,
// whose lane threads must unwind cleanly. ctest runs this suite with a TIMEOUT, so a
// regression to the hang fails instead of stalling the run.

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "support/vector_stream.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/task_record.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

using qnet_testing::VectorStream;

const double kBadEntries[] = {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::infinity()};

std::vector<TaskRecord> CleanRecords() {
  const QueueingNetwork net = MakeTandemNetwork(4.0, {8.0, 9.0});
  Rng rng(7);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 400), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, rng);
  std::vector<TaskRecord> records;
  for (int k = 0; k < truth.NumTasks(); ++k) {
    records.push_back(MakeTaskRecord(truth, obs, k));
  }
  return records;
}

// The clean stream with record `at`'s entry time replaced by `entry`: several windows
// have closed (and are being fitted) by the time the bad record arrives.
std::vector<TaskRecord> WithBadEntry(std::vector<TaskRecord> records, std::size_t at,
                                     double entry) {
  records[at].entry_time = entry;
  return records;
}

StreamingEstimatorOptions ShortStemOptions() {
  StreamingEstimatorOptions options;
  options.window.window_duration = 25.0;
  options.stem.iterations = 30;
  options.stem.burn_in = 10;
  options.stem.wait_sweeps = 5;
  options.pipeline = true;  // a fit is in flight when the error unwinds Run
  return options;
}

TEST(EntryValidation, TrackerRejectsNonFiniteEntriesWithoutChangingState) {
  for (const double bad : kBadEntries) {
    WindowAssemblerOptions options;
    options.min_tasks_per_window = 2;
    WindowSpanTracker tracker(options);
    tracker.Push(1.0);
    tracker.Push(2.0);
    EXPECT_THROW(tracker.Push(bad), Error) << bad;
    EXPECT_EQ(tracker.TasksPushed(), 2u);
    EXPECT_EQ(tracker.PendingCount(), 2u);
    EXPECT_EQ(tracker.Watermark(), 2.0);
    // The tracker is still usable: a later finite entry closes the window as usual.
    tracker.Push(70.0);
    ASSERT_TRUE(tracker.HasClosed());
    EXPECT_EQ(tracker.PopClosed().count, 2u);
  }
}

TEST(EntryValidation, StreamingEstimatorThrowsInsteadOfHanging) {
  const std::vector<TaskRecord> clean = CleanRecords();
  for (const double bad : kBadEntries) {
    VectorStream stream(WithBadEntry(clean, 300, bad), 3);
    StreamingEstimator estimator({1.0, 1.0, 1.0}, 99, ShortStemOptions());
    EXPECT_THROW(estimator.Run(stream), Error) << bad;
  }
}

TEST(EntryValidation, FleetThrowsAndItsLanesUnwind) {
  const std::vector<TaskRecord> clean = CleanRecords();
  ShardedStreamingOptions options;
  options.lanes = 2;
  options.stream = ShortStemOptions();
  VectorStream reference_stream(clean, 3);
  const std::vector<WindowEstimate> reference =
      ShardedStreamingEstimator({1.0, 1.0, 1.0}, 99, options).Run(reference_stream);
  ASSERT_GE(reference.size(), 3u);
  for (const double bad : kBadEntries) {
    ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, 99, options);
    VectorStream bad_stream(WithBadEntry(clean, 300, bad), 3);
    // Run returning at all means every lane thread was joined.
    EXPECT_THROW(fleet.Run(bad_stream), Error) << bad;
    // Nothing of the failed run leaks into the next: the same fleet then reproduces a
    // fresh fleet's estimates on the clean stream.
    VectorStream clean_stream(clean, 3);
    const std::vector<WindowEstimate> rerun = fleet.Run(clean_stream);
    ASSERT_EQ(rerun.size(), reference.size());
    for (std::size_t w = 0; w < rerun.size(); ++w) {
      EXPECT_EQ(rerun[w].t1, reference[w].t1) << "window " << w;
      EXPECT_EQ(rerun[w].rates, reference[w].rates) << "window " << w;
      EXPECT_EQ(rerun[w].mean_wait, reference[w].mean_wait) << "window " << w;
    }
    EXPECT_EQ(fleet.Stats().tasks_ingested, clean.size());
  }
}

}  // namespace
}  // namespace qnet
