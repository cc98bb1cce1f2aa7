// Bad records at the stream boundary.
//
// Non-finite entry times: a +inf entry once drove the window close loop's fast-forward
// bound to infinity, so the stream hung forever; a NaN never compares into any window.
// Both must be rejected with qnet::Error before they touch any state — by the span
// tracker, the plain StreamingEstimator, and the lane fleet, whose StEM fits in flight
// on the fit pool must unwind cleanly. ctest runs this suite with a TIMEOUT, so a
// regression to the hang fails instead of stalling the run.
//
// Malformed records (no visits, negative entry, bad queue, departure before arrival,
// broken continuity, NaN visit times): ValidateTaskRecord rejects them for the window
// log builder and the mean-field record fold alike, so a sampler-free window that never
// builds a log still raises qnet::Error, when its lane takes the record; a lane that
// keeps records for StEM holds the record that closes a window and folds it at that
// close, so there the error is raised at the close, with earlier fits in flight.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/one_cpu.h"
#include "support/vector_stream.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/model/builders.h"
#include "qnet/infer/meanfield.h"
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

// Replays `records` and throws from the Next after `limit` of them.
class ThrowingStream : public TraceStream {
 public:
  ThrowingStream(const std::vector<TaskRecord>& records, std::size_t limit)
      : records_(records), limit_(limit) {}
  bool Next(TaskRecord& out) override {
    QNET_CHECK(at_ < limit_, "stream failed after ", limit_, " records");
    if (at_ == records_.size()) {
      return false;
    }
    out = records_[at_++];
    return true;
  }
  int NumQueues() const override { return 3; }

 private:
  const std::vector<TaskRecord>& records_;
  std::size_t limit_;
  std::size_t at_ = 0;
};

// With more than one CPU, StEM fits are in flight on the fit pool when the error unwinds
// Run: K = 2/4 lanes fit alongside each other, and a K = 1 kWarmStart lane, whose fits
// read no chain rate, keeps up to 2W of its own in flight. Both a bad entry (rejected on
// the caller's thread) and a stream that throws must unwind past them, and the same fleet
// must then reproduce a fresh fleet's estimates.
TEST(EntryValidation, FleetThrowsAndItsLanesUnwind) {
  const std::vector<TaskRecord> clean = CleanRecords();
  struct Shape {
    std::size_t lanes;
    FastPathMode mode;
  };
  for (const Shape shape : {Shape{1, FastPathMode::kWarmStart}, Shape{2, FastPathMode::kOff},
                            Shape{4, FastPathMode::kOff}}) {
    ShardedStreamingOptions options;
    options.lanes = shape.lanes;
    options.stream = ShortStemOptions();
    options.stream.fast_path = shape.mode;
    VectorStream reference_stream(clean, 3);
    const std::vector<WindowEstimate> reference =
        ShardedStreamingEstimator({1.0, 1.0, 1.0}, 99, options).Run(reference_stream);
    ASSERT_GE(reference.size(), 3u);
    const auto expect_rerun_matches = [&](ShardedStreamingEstimator& fleet) {
      // Nothing of the failed run leaks into the next.
      VectorStream clean_stream(clean, 3);
      const std::vector<WindowEstimate> rerun = fleet.Run(clean_stream);
      ASSERT_EQ(rerun.size(), reference.size());
      for (std::size_t w = 0; w < rerun.size(); ++w) {
        EXPECT_EQ(rerun[w].t1, reference[w].t1) << "window " << w;
        EXPECT_EQ(rerun[w].rates, reference[w].rates) << "window " << w;
        EXPECT_EQ(rerun[w].mean_wait, reference[w].mean_wait) << "window " << w;
      }
      EXPECT_EQ(fleet.Stats().tasks_ingested, clean.size());
    };
    // The thread's full mask, then fit-pool widths 2 and 4 whatever the host's CPUs.
    for (const std::size_t width : {0u, 2u, 4u}) {
      SCOPED_TRACE("lanes " + std::to_string(shape.lanes) + ", fit pool width " +
                   std::to_string(width == 0 ? AffinityWidth() : width));
      std::optional<qnet_testing::ScopedFitPoolWidth> pool_width;
      if (width > 0) {
        pool_width.emplace(width);
      }
      for (const double bad : kBadEntries) {
        ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, 99, options);
        VectorStream bad_stream(WithBadEntry(clean, 300, bad), 3);
        // Run returning at all means every pool worker was joined.
        EXPECT_THROW(fleet.Run(bad_stream), Error) << bad;
        expect_rerun_matches(fleet);
      }
      ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, 99, options);
      ThrowingStream throwing(clean, 300);
      EXPECT_THROW(fleet.Run(throwing), Error);
      expect_rerun_matches(fleet);
    }
  }
}

// --- Malformed records ---------------------------------------------------------------------

struct BadRecord {
  std::string name;
  TaskRecord record;
};

// Variants of `good` (a two-visit tandem record) that EventLog::AddTask/AddVisit reject.
std::vector<BadRecord> BadVariants(const TaskRecord& good) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<BadRecord> bad;
  const auto add = [&](std::string name, auto mutate) {
    TaskRecord record = good;
    mutate(record);
    bad.push_back({std::move(name), std::move(record)});
  };
  add("no visits", [](TaskRecord& r) { r.visits.clear(); });
  add("negative entry", [](TaskRecord& r) {
    r.entry_time = -1.0;
    r.visits.front().arrival = -1.0;
  });
  add("queue 0", [](TaskRecord& r) { r.visits.back().queue = 0; });
  add("queue past the last", [](TaskRecord& r) { r.visits.back().queue = 3; });
  add("departure before arrival",
      [](TaskRecord& r) { r.visits.back().departure = r.visits.back().arrival - 0.5; });
  add("first visit starts after entry", [](TaskRecord& r) {
    r.visits.front().arrival += 1e-6;
    r.visits.front().departure += 1e-6;
  });
  add("second visit starts after the first ends", [](TaskRecord& r) {
    r.visits.back().arrival += 1e-6;
    r.visits.back().departure += 1e-6;
  });
  add("NaN arrival", [](TaskRecord& r) { r.visits.back().arrival = kNaN; });
  add("NaN departure", [](TaskRecord& r) { r.visits.front().departure = kNaN; });
  return bad;
}

TEST(RecordValidation, BuilderAndFoldRejectTheSameRecords) {
  const std::vector<TaskRecord> clean = CleanRecords();
  const TaskRecord& good = clean[300];
  ASSERT_EQ(good.visits.size(), 2u);
  for (const BadRecord& bad : BadVariants(good)) {
    SCOPED_TRACE(bad.name);
    WindowLogBuilder builder(3);
    MeanFieldRecordFold fold(3);
    EXPECT_THROW(ValidateTaskRecord(bad.record, 3, 0.0), Error);
    EXPECT_THROW(builder.Add(bad.record), Error);
    EXPECT_THROW(fold.Add(bad.record), Error);
  }
  // Entry order within a window: the builder rejects a record that enters before its
  // predecessor.
  WindowLogBuilder builder(3);
  builder.Add(clean[301]);
  EXPECT_THROW(builder.Add(good), Error);
  // The fold takes records in any order instead: fed a permutation of a window's records
  // (each with its index in the sorted window as its arrival index), it equals a fold
  // fed the sorted records, bit for bit.
  const std::vector<TaskRecord> window(clean.begin() + 250, clean.begin() + 350);
  MeanFieldRecordFold sorted(3);
  for (std::size_t k = 0; k < window.size(); ++k) {
    sorted.Add(window[k], k);
  }
  std::vector<std::size_t> order(window.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::reverse(order.begin(), order.begin() + 10);  // a reversed run, then a shuffle
  Rng rng(5);
  for (std::size_t k = order.size() - 1; k > 10; --k) {
    std::swap(order[k], order[10 + rng.UniformInt(k - 9)]);
  }
  MeanFieldRecordFold permuted(3);
  for (const std::size_t k : order) {
    permuted.Add(window[k], k);
  }
  const MeanFieldStats& a = sorted.Stats();
  const MeanFieldStats& b = permuted.Stats();
  EXPECT_EQ(a.counts, b.counts);
  ASSERT_EQ(a.resp_sum.size(), b.resp_sum.size());
  for (std::size_t q = 0; q < a.resp_sum.size(); ++q) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.resp_sum[q]),
              std::bit_cast<std::uint64_t>(b.resp_sum[q]))
        << "queue " << q;
  }
  EXPECT_EQ(a.resp_count, b.resp_count);
  EXPECT_EQ(a.observed_responses, b.observed_responses);
  EXPECT_GT(a.observed_responses, 20u);
  EXPECT_EQ(a.t_min, b.t_min);
  EXPECT_EQ(a.t_max, b.t_max);
  EXPECT_EQ(a.last_entry, b.last_entry);
  EXPECT_EQ(a.entry_observed, b.entry_observed);
  // The unmodified record passes everywhere.
  builder.Restart();
  MeanFieldRecordFold fold(3);
  EXPECT_NO_THROW(ValidateTaskRecord(good, 3, clean[299].entry_time));
  EXPECT_NO_THROW(builder.Add(good));
  EXPECT_NO_THROW(fold.Add(good));
}

// A sampler-free lane folds each record when it takes it, so a bad record throws when
// it is routed, before any later window closes: every earlier window was emitted.
TEST(RecordValidation, SamplerFreeFleetsThrowWhenTheLaneTakesTheRecord) {
  const std::vector<TaskRecord> clean = CleanRecords();
  ShardedStreamingOptions options;
  options.stream = ShortStemOptions();
  options.stream.fast_path = FastPathMode::kMeanFieldOnly;
  // A negative entry is late; merging it routes it into the open window.
  options.stream.window.late_policy = LateRecordPolicy::kMergeIntoCurrent;
  std::size_t emitted = 0;
  options.stream.on_window = [&emitted](const WindowEstimate&) { ++emitted; };

  // Windows that close before the one holding the record at `entry`.
  VectorStream clean_stream(clean, 3);
  const std::vector<WindowEstimate> reference =
      ShardedStreamingEstimator({1.0, 1.0, 1.0}, 99, options).Run(clean_stream);
  const auto windows_before = [&](double entry) {
    std::size_t count = 0;
    for (const WindowEstimate& estimate : reference) {
      count += estimate.t1 <= entry ? 1 : 0;
    }
    return count;
  };
  // The late negative entry joins the window open when it arrives: record 299's.
  ASSERT_EQ(windows_before(clean[299].entry_time), windows_before(clean[300].entry_time));
  const std::size_t expected_before = windows_before(clean[300].entry_time);
  ASSERT_GE(expected_before, 2u);
  ASSERT_LT(expected_before, reference.size());

  for (const std::size_t lanes : {1u, 2u}) {
    options.lanes = lanes;
    for (const BadRecord& bad : BadVariants(clean[300])) {
      SCOPED_TRACE(bad.name + ", lanes " + std::to_string(lanes));
      std::vector<TaskRecord> records = clean;
      records[300] = bad.record;
      VectorStream stream(std::move(records), 3);
      ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, 99, options);
      emitted = 0;
      EXPECT_THROW(fleet.Run(stream), Error);
      if (lanes == 1) {
        // On the caller's thread: every earlier window was emitted, and nothing after it.
        EXPECT_EQ(emitted, expected_before);
      }
    }
  }
}

// A StEM lane takes the record that closes a window before the close and holds it, so a
// record there that fails its visit check raises qnet::Error at that window's close —
// after the window's fit was handed to the fit pool, which at W > 1 still has earlier
// fits in flight (kWarmStart fits read no chain rate, so up to 2W run at once). The run
// must unwind past them, and the fleet must be reusable afterwards.
TEST(RecordValidation, StemFleetsThrowAtTheCloseWithFitsInFlight) {
  const std::vector<TaskRecord> clean = CleanRecords();
  ShardedStreamingOptions options;
  options.stream = ShortStemOptions();
  options.stream.fast_path = FastPathMode::kWarmStart;
  VectorStream clean_stream(clean, 3);
  const std::vector<WindowEstimate> reference =
      ShardedStreamingEstimator({1.0, 1.0, 1.0}, 99, options).Run(clean_stream);
  // The first record at or past 300 that closes a window: it reaches a window's end.
  std::size_t closing = 0;
  for (std::size_t at = 300; at < clean.size() && closing == 0; ++at) {
    for (const WindowEstimate& estimate : reference) {
      if (clean[at - 1].entry_time < estimate.t1 && clean[at].entry_time >= estimate.t1) {
        closing = at;
      }
    }
  }
  ASSERT_GT(closing, 0u);
  for (const std::size_t lanes : {1u, 2u}) {
    options.lanes = lanes;
    const std::vector<WindowEstimate> lane_reference = [&] {
      VectorStream stream(clean, 3);
      return ShardedStreamingEstimator({1.0, 1.0, 1.0}, 99, options).Run(stream);
    }();
    // The thread's full mask, then fit-pool widths 2 and 4 whatever the host's CPUs.
    for (const std::size_t width : {0u, 2u, 4u}) {
      std::optional<qnet_testing::ScopedFitPoolWidth> pool_width;
      if (width > 0) {
        pool_width.emplace(width);
      }
      for (const BadRecord& bad : BadVariants(clean[closing])) {
        if (bad.record.entry_time != clean[closing].entry_time) {
          continue;  // a moved entry no longer closes the window
        }
        SCOPED_TRACE(bad.name + ", lanes " + std::to_string(lanes) + ", fit pool width " +
                     std::to_string(width == 0 ? AffinityWidth() : width));
        std::vector<TaskRecord> records = clean;
        records[closing] = bad.record;
        VectorStream stream(std::move(records), 3);
        ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, 99, options);
        EXPECT_THROW(fleet.Run(stream), Error);
        VectorStream rerun_stream(clean, 3);
        const std::vector<WindowEstimate> rerun = fleet.Run(rerun_stream);
        ASSERT_EQ(rerun.size(), lane_reference.size());
        for (std::size_t w = 0; w < rerun.size(); ++w) {
          EXPECT_EQ(rerun[w].rates, lane_reference[w].rates) << "window " << w;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qnet
