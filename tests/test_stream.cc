// Streaming inference engine: trace streams, watermark-driven window assembly, and the
// windowed StEM estimator.
//
// The load-bearing assertions are bit-exactness ones: the streaming engine must
// reproduce the batch windowed estimator exactly — same windows, same estimates — and
// the window logs built incrementally from TaskRecords must equal the ones
// ExtractTaskWindow builds from the batch log.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "support/one_cpu.h"
#include "support/overtaking_records.h"
#include "support/vector_stream.h"
#include "qnet/dist/deterministic.h"
#include "qnet/infer/stem.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/sim/fault.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/live_stream.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/task_record.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"
#include "qnet/trace/csv.h"

namespace qnet {
namespace {

using qnet_testing::OvertakingRecords;

struct Fixture {
  EventLog truth;
  Observation obs;

  Fixture(double fraction = 0.5, std::size_t tasks = 400, std::uint64_t seed = 7)
      : truth(MakeLog(tasks, seed)), obs(MakeObs(truth, fraction, seed)) {}

  static EventLog MakeLog(std::size_t tasks, std::uint64_t seed) {
    const QueueingNetwork net = MakeTandemNetwork(4.0, {8.0, 9.0});
    Rng rng(seed);
    return SimulateWorkload(net, PoissonArrivals(4.0, tasks), rng);
  }
  static Observation MakeObs(const EventLog& log, double fraction, std::uint64_t seed) {
    Rng rng(seed + 1);
    TaskSamplingScheme scheme;
    scheme.fraction = fraction;
    return scheme.Apply(log, rng);
  }
};

void ExpectLogsIdentical(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.NumEvents(), b.NumEvents());
  ASSERT_EQ(a.NumTasks(), b.NumTasks());
  ASSERT_EQ(a.NumQueues(), b.NumQueues());
  for (EventId e = 0; static_cast<std::size_t>(e) < a.NumEvents(); ++e) {
    const Event& ea = a.At(e);
    const Event& eb = b.At(e);
    EXPECT_EQ(ea.task, eb.task);
    EXPECT_EQ(ea.state, eb.state);
    EXPECT_EQ(ea.queue, eb.queue);
    EXPECT_EQ(ea.arrival, eb.arrival);      // bitwise: same doubles copied through
    EXPECT_EQ(ea.departure, eb.departure);
    EXPECT_EQ(ea.pi, eb.pi);
    EXPECT_EQ(ea.tau, eb.tau);
    EXPECT_EQ(ea.rho, eb.rho);
    EXPECT_EQ(ea.nu, eb.nu);
    EXPECT_EQ(ea.initial, eb.initial);
  }
}

void ExpectEstimatesIdentical(const std::vector<WindowEstimate>& a,
                              const std::vector<WindowEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].t0, b[w].t0) << "window " << w;
    EXPECT_EQ(a[w].t1, b[w].t1) << "window " << w;
    EXPECT_EQ(a[w].tasks, b[w].tasks) << "window " << w;
    EXPECT_EQ(a[w].merged_tail_tasks, b[w].merged_tail_tasks) << "window " << w;
    EXPECT_EQ(a[w].degraded, b[w].degraded) << "window " << w;
    EXPECT_EQ(a[w].fit_iterations, b[w].fit_iterations) << "window " << w;
    ASSERT_EQ(a[w].rates.size(), b[w].rates.size());
    for (std::size_t q = 0; q < a[w].rates.size(); ++q) {
      EXPECT_EQ(a[w].rates[q], b[w].rates[q]) << "window " << w << " q=" << q;
    }
    ASSERT_EQ(a[w].mean_wait.size(), b[w].mean_wait.size());
    for (std::size_t q = 0; q < a[w].mean_wait.size(); ++q) {
      EXPECT_EQ(a[w].mean_wait[q], b[w].mean_wait[q]) << "window " << w << " q=" << q;
    }
  }
}

// --- WindowLogBuilder ------------------------------------------------------------------

TEST(WindowLogBuilder, MatchesExtractTaskWindow) {
  const Fixture f;
  const std::vector<int> tasks = {3, 4, 5, 6, 10, 11, 40, 41, 42};
  const auto [batch_log, batch_obs] = ExtractTaskWindow(f.truth, f.obs, tasks);

  WindowLogBuilder builder(f.truth.NumQueues());
  for (const int task : tasks) {
    builder.Add(MakeTaskRecord(f.truth, f.obs, task));
  }
  const auto [stream_log, stream_obs] = builder.Finish();

  ExpectLogsIdentical(batch_log, stream_log);
  EXPECT_EQ(batch_obs.arrival_observed, stream_obs.arrival_observed);
  EXPECT_EQ(batch_obs.departure_observed, stream_obs.departure_observed);
  EXPECT_EQ(batch_obs.observed_tasks, stream_obs.observed_tasks);
}

TEST(WindowLogBuilder, IsReusableAcrossWindows) {
  const Fixture f;
  WindowLogBuilder builder(f.truth.NumQueues());
  builder.Add(MakeTaskRecord(f.truth, f.obs, 0));
  builder.Add(MakeTaskRecord(f.truth, f.obs, 1));
  const auto [first_log, first_obs] = builder.Finish();
  EXPECT_EQ(first_log.NumTasks(), 2);

  builder.Add(MakeTaskRecord(f.truth, f.obs, 2));
  const auto [second_log, second_obs] = builder.Finish();
  EXPECT_EQ(second_log.NumTasks(), 1);
  EXPECT_EQ(second_log.TaskEntryTime(0), f.truth.TaskEntryTime(2));
  second_obs.Validate(second_log);
}

// --- In-place window build ---------------------------------------------------------------

// Field-for-field window equality: every Event field (ExpectLogsIdentical), every queue
// order and task chain, both masks and observed_tasks.
void ExpectWindowsIdentical(const EventLog& a_log, const Observation& a_obs,
                            const EventLog& b_log, const Observation& b_obs) {
  ExpectLogsIdentical(a_log, b_log);
  for (int q = 0; q < a_log.NumQueues(); ++q) {
    EXPECT_EQ(a_log.QueueOrder(q), b_log.QueueOrder(q)) << "queue " << q;
  }
  for (int k = 0; k < a_log.NumTasks(); ++k) {
    EXPECT_EQ(a_log.TaskEvents(k), b_log.TaskEvents(k)) << "task " << k;
  }
  EXPECT_EQ(a_obs.arrival_observed, b_obs.arrival_observed);
  EXPECT_EQ(a_obs.departure_observed, b_obs.departure_observed);
  EXPECT_EQ(a_obs.observed_tasks, b_obs.observed_tasks);
}

// One window sequence that grows and then shrinks, so the in-place builder reuses
// buffers both larger and smaller than the window it is building.
void ExpectInPlaceMatchesOneShotAndBatch(const EventLog& truth, const Observation& obs) {
  const std::vector<int> sizes = {3, 12, 40, 25, 7, 1};
  WindowLogBuilder in_place(truth.NumQueues());
  WindowLogBuilder one_shot_reused(truth.NumQueues());
  int first = 0;
  for (const int size : sizes) {
    ASSERT_LE(first + size, truth.NumTasks());
    std::vector<int> tasks;
    in_place.Restart();
    WindowLogBuilder one_shot(truth.NumQueues());
    for (int k = first; k < first + size; ++k) {
      tasks.push_back(k);
      const TaskRecord record = MakeTaskRecord(truth, obs, k);
      in_place.Add(record);
      one_shot.Add(record);
      one_shot_reused.Add(record);
    }
    in_place.Build();
    const auto [fresh_log, fresh_obs] = one_shot.Finish();
    const auto [reused_log, reused_obs] = one_shot_reused.Finish();
    const auto [batch_log, batch_obs] = ExtractTaskWindow(truth, obs, tasks);
    SCOPED_TRACE("window of " + std::to_string(size) + " tasks from " +
                 std::to_string(first));
    ExpectWindowsIdentical(in_place.Log(), in_place.Obs(), fresh_log, fresh_obs);
    ExpectWindowsIdentical(in_place.Log(), in_place.Obs(), reused_log, reused_obs);
    ExpectWindowsIdentical(in_place.Log(), in_place.Obs(), batch_log, batch_obs);
    first += size;
  }
}

TEST(WindowLogBuilder, InPlaceBuildMatchesOneShotAndExtractTaskWindow) {
  const Fixture f;
  ExpectInPlaceMatchesOneShotAndBatch(f.truth, f.obs);
}

TEST(WindowLogBuilder, InPlaceBuildMatchesWhenQueuesNeedSorting) {
  const std::vector<TaskRecord> records = OvertakingRecords(120);
  WindowLogBuilder builder(4);
  for (const TaskRecord& record : records) {
    builder.Add(record);
  }
  const auto [truth, obs] = builder.Finish();
  ExpectInPlaceMatchesOneShotAndBatch(truth, obs);
}

TEST(WindowLogBuilder, AddAfterBuildNeedsRestart) {
  const Fixture f;
  WindowLogBuilder builder(f.truth.NumQueues());
  builder.Add(MakeTaskRecord(f.truth, f.obs, 0));
  builder.Build();
  EXPECT_THROW(builder.Add(MakeTaskRecord(f.truth, f.obs, 1)), Error);
  builder.Restart();
  builder.Add(MakeTaskRecord(f.truth, f.obs, 1));
  builder.Build();
  EXPECT_EQ(builder.Log().NumTasks(), 1);
  EXPECT_EQ(builder.Log().TaskEntryTime(0), f.truth.TaskEntryTime(1));
}

TEST(EventLog, QueueLinksOnOvertakingLogMatchAlwaysSortReference) {
  const std::vector<TaskRecord> records = OvertakingRecords(90);
  WindowLogBuilder builder(4);
  for (const TaskRecord& record : records) {
    builder.Add(record);
  }
  builder.Build();
  const EventLog& log = builder.Log();
  std::size_t unsorted_queues = 0;
  for (int q = 0; q < log.NumQueues(); ++q) {
    std::vector<EventId> by_id;
    for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
      if (log.At(e).queue == q) {
        by_id.push_back(e);
      }
    }
    const auto arrives_before = [&](EventId a, EventId b) {
      const double aa = log.At(a).arrival;
      const double ab = log.At(b).arrival;
      return aa != ab ? aa < ab : a < b;
    };
    std::vector<EventId> reference = by_id;
    std::sort(reference.begin(), reference.end(), arrives_before);
    unsorted_queues += reference != by_id ? 1 : 0;
    EXPECT_EQ(log.QueueOrder(q), reference) << "queue " << q;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const Event& ev = log.At(reference[i]);
      EXPECT_EQ(ev.rho, i == 0 ? kNoEvent : reference[i - 1]);
      EXPECT_EQ(ev.nu, i + 1 == reference.size() ? kNoEvent : reference[i + 1]);
    }
  }
  // The fixture must exercise the sort, not only the already-sorted skip.
  EXPECT_GE(unsorted_queues, 1u);
}

TEST(TakeDecisionRecords, MatchesAlwaysSortReferenceOnOrderedAndShuffledInput) {
  // Records are told apart by a visit marker, so tied entry times pin stability.
  const auto make = [](const std::vector<double>& entries) {
    std::vector<TaskRecord> records;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      TaskRecord record;
      record.entry_time = entries[i];
      record.visits.push_back(TaskVisit{1, 1, entries[i], entries[i] + static_cast<double>(i),
                                        true, true});
      records.push_back(record);
    }
    return records;
  };
  const auto reference = [](const WindowSpanTracker::SpanDecision& decision,
                            std::vector<TaskRecord>& pending,
                            std::vector<TaskRecord>& last_window) {
    const auto end = decision.take_all
                         ? pending.end()
                         : std::stable_partition(pending.begin(), pending.end(),
                                                 [&](const TaskRecord& record) {
                                                   return record.entry_time < decision.t1;
                                                 });
    std::vector<TaskRecord> records;
    if (decision.merged_tail_tasks > 0) {
      records = std::move(last_window);
      last_window.clear();
    }
    records.insert(records.end(), pending.begin(), end);
    pending.erase(pending.begin(), end);
    std::stable_sort(records.begin(), records.end(),
                     [](const TaskRecord& a, const TaskRecord& b) {
                       return a.entry_time < b.entry_time;
                     });
    return records;
  };
  const std::vector<std::vector<double>> cases = {
      {1.0, 2.0, 2.0, 3.0, 6.0, 7.0},       // ordered: both skips taken
      {1.0, 3.0, 2.0, 2.0, 4.5, 8.0, 9.0},  // partitioned but unsorted, with ties
      {3.0, 1.0, 7.0, 2.0, 6.0, 2.0, 4.0},  // neither partitioned nor sorted
      {5.0, 5.0, 5.0, 9.0, 9.0},            // all tied inside, all tied outside
  };
  for (const std::vector<double>& entries : cases) {
    for (const bool take_all : {false, true}) {
      for (const std::size_t merged_tail : {std::size_t{0}, std::size_t{2}}) {
        WindowSpanTracker::SpanDecision decision;
        decision.t1 = 5.0;
        decision.take_all = take_all;
        decision.merged_tail_tasks = merged_tail;
        std::vector<TaskRecord> pending = make(entries);
        std::vector<TaskRecord> last_window = make({4.0, 0.5, 4.0});
        std::vector<TaskRecord> ref_pending = pending;
        std::vector<TaskRecord> ref_last_window = last_window;
        const std::vector<TaskRecord> got = TakeDecisionRecords(decision, pending, last_window);
        const std::vector<TaskRecord> want = reference(decision, ref_pending, ref_last_window);
        EXPECT_EQ(got, want);
        EXPECT_EQ(pending, ref_pending);
        EXPECT_EQ(last_window, ref_last_window);
      }
    }
  }
}

// --- Replay streams --------------------------------------------------------------------

TEST(LogReplayStream, YieldsEveryTaskInOrder) {
  const Fixture f(0.5, 50);
  LogReplayStream stream(f.truth, f.obs);
  EXPECT_EQ(stream.NumQueues(), f.truth.NumQueues());
  TaskRecord record;
  int count = 0;
  double last_entry = 0.0;
  while (stream.Next(record)) {
    EXPECT_EQ(record, MakeTaskRecord(f.truth, f.obs, count));
    EXPECT_GE(record.entry_time, last_entry);
    last_entry = record.entry_time;
    ++count;
  }
  EXPECT_EQ(count, f.truth.NumTasks());
}

TEST(CsvReplayStream, MatchesLogReplayExactly) {
  const Fixture f(0.4, 60);
  std::stringstream log_csv;
  std::stringstream obs_csv;
  WriteEventLog(log_csv, f.truth);
  WriteObservation(obs_csv, f.obs);

  // num_queues comes from the '# queues=N' header.
  CsvReplayStream csv_stream(log_csv, -1, &obs_csv);
  EXPECT_EQ(csv_stream.NumQueues(), f.truth.NumQueues());
  LogReplayStream log_stream(f.truth, f.obs);

  TaskRecord from_csv;
  TaskRecord from_log;
  int tasks = 0;
  while (log_stream.Next(from_log)) {
    ASSERT_TRUE(csv_stream.Next(from_csv));
    ASSERT_EQ(from_csv.visits.size(), from_log.visits.size()) << "task " << tasks;
    // Times round-trip exactly (setprecision(17)); arrival flags match. Internal
    // departure flags may differ in representation but are re-derived by the builder.
    EXPECT_EQ(from_csv.entry_time, from_log.entry_time) << "task " << tasks;
    for (std::size_t i = 0; i < from_log.visits.size(); ++i) {
      EXPECT_EQ(from_csv.visits[i].queue, from_log.visits[i].queue);
      EXPECT_EQ(from_csv.visits[i].state, from_log.visits[i].state);
      EXPECT_EQ(from_csv.visits[i].arrival, from_log.visits[i].arrival);
      EXPECT_EQ(from_csv.visits[i].departure, from_log.visits[i].departure);
      EXPECT_EQ(from_csv.visits[i].arrival_observed, from_log.visits[i].arrival_observed);
      EXPECT_EQ(from_csv.visits[i].departure_observed,
                from_log.visits[i].departure_observed);
    }
    ++tasks;
  }
  EXPECT_FALSE(csv_stream.Next(from_csv));
  EXPECT_EQ(tasks, f.truth.NumTasks());
}

TEST(CsvReplayStream, HeaderlessFilesNeedExplicitNumQueues) {
  const Fixture f(1.0, 10);
  std::stringstream with_header;
  WriteEventLog(with_header, f.truth);
  // Strip the '# queues=N' line to simulate a legacy file.
  std::string all = with_header.str();
  const std::string headerless = all.substr(all.find('\n') + 1);

  std::stringstream no_header(headerless);
  EXPECT_THROW(CsvReplayStream(no_header, -1), Error);
  std::stringstream no_header2(headerless);
  CsvReplayStream stream(no_header2, f.truth.NumQueues());
  TaskRecord record;
  EXPECT_TRUE(stream.Next(record));
  EXPECT_EQ(record.entry_time, f.truth.TaskEntryTime(0));

  // A wrong explicit count contradicting the header is rejected.
  std::stringstream with_header2(all);
  EXPECT_THROW(CsvReplayStream(with_header2, f.truth.NumQueues() + 1), Error);
}

// --- Window assembly on the streaming path ------------------------------------------

TaskRecord TinyRecord(double entry, double service = 0.01) {
  TaskRecord record;
  record.entry_time = entry;
  TaskVisit visit;
  visit.state = 0;
  visit.queue = 1;
  visit.arrival = entry;
  visit.departure = entry + service;
  record.visits.push_back(visit);
  return record;
}

// Counts the records the estimator has asked for.
class CountingStream : public TraceStream {
 public:
  explicit CountingStream(TraceStream& inner) : inner_(inner) {}
  bool Next(TaskRecord& out) override {
    const bool more = inner_.Next(out);
    pulls_ += more ? 1 : 0;
    return more;
  }
  int NumQueues() const override { return inner_.NumQueues(); }
  std::size_t Pulls() const { return pulls_; }

 private:
  TraceStream& inner_;
  std::size_t pulls_ = 0;
};

// A hand-built stream of TinyRecords entering at `entries`, in that order, through the
// plain estimator with a lane that keeps its records (the record selection StEM windows
// use) but fits every window by mean field (a 0-task degrade budget): the production
// window path at the cost of a fold.
struct TinyRun {
  std::vector<WindowEstimate> emitted;  // every on_window call, merged-tail re-fit included
  std::vector<std::size_t> pulls;       // records pulled when each was emitted
  std::vector<WindowEstimate> estimates;
  StreamingStats stats;
};

TinyRun RunTinyStream(const std::vector<double>& entries, const WindowAssemblerOptions& window) {
  std::vector<TaskRecord> records;
  for (const double t : entries) {
    records.push_back(TinyRecord(t));
  }
  qnet_testing::VectorStream replay(std::move(records), 2);
  CountingStream stream(replay);
  TinyRun run;
  StreamingEstimatorOptions options;
  options.window = window;
  options.fast_path = FastPathMode::kDegrade;
  options.degrade_task_budget = 0;
  options.on_window = [&](const WindowEstimate& estimate) {
    run.emitted.push_back(estimate);
    run.pulls.push_back(stream.Pulls());
  };
  StreamingEstimator estimator({1.0, 1.0}, 1, options);
  run.estimates = estimator.Run(stream);
  run.stats = estimator.Stats();
  return run;
}

WindowAssemblerOptions TenSecondWindows(std::size_t min_tasks) {
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = min_tasks;
  return options;
}

TEST(WindowAssembly, ClosesWindowsAtWatermarkAndMergesSmallOnes) {
  // Window [0,10): 3 tasks; [10,20): only 2 tasks -> merges into [10,30). The 31.0
  // record is left over and merges into [10,30) at the end of the stream.
  const TinyRun run =
      RunTinyStream({1.0, 2.0, 3.0, 11.0, 12.0, 21.0, 25.0, 29.5, 31.0}, TenSecondWindows(3));
  ASSERT_EQ(run.emitted.size(), 3u);
  EXPECT_EQ(run.emitted[0].t0, 0.0);
  EXPECT_EQ(run.emitted[0].t1, 10.0);
  EXPECT_EQ(run.emitted[0].tasks, 3u);
  EXPECT_EQ(run.pulls[0], 4u);  // [0,10) closed when the 11.0 record arrived
  EXPECT_EQ(run.emitted[1].t0, 10.0);
  EXPECT_EQ(run.emitted[1].t1, 30.0);  // span extended over the too-small [10,20)
  EXPECT_EQ(run.emitted[1].tasks, 5u);
  EXPECT_EQ(run.pulls[1], 9u);  // 21.0 did not close it (2 < 3 tasks), 31.0 did
  const WindowEstimate& tail = run.emitted[2];
  EXPECT_EQ(tail.merged_tail_tasks, 1u);
  EXPECT_EQ(tail.t0, 10.0);  // replaces the previous window, span extended
  EXPECT_EQ(tail.tasks, 6u);
  ASSERT_EQ(run.estimates.size(), 2u);
  EXPECT_EQ(run.estimates.back().merged_tail_tasks, 1u);
  EXPECT_EQ(run.stats.windows_estimated, 2u);
  EXPECT_EQ(run.stats.tail_dropped, 0u);
}

TEST(WindowAssembly, FirstWindowClosesOnArrivalPastEnd) {
  const TinyRun run = RunTinyStream({1.0, 2.0, 10.5}, TenSecondWindows(2));
  ASSERT_GE(run.emitted.size(), 1u);
  EXPECT_EQ(run.emitted[0].tasks, 2u);
  EXPECT_EQ(run.pulls[0], 3u);
}

TEST(WindowAssembly, LateRecordPolicies) {
  WindowAssemblerOptions options = TenSecondWindows(2);
  options.late_policy = LateRecordPolicy::kDrop;
  // [0,10) closes when 11.0 arrives; the 5.0 record after it is late.
  const std::vector<double> entries = {1.0, 2.0, 11.0, 5.0, 12.0};
  {
    const TinyRun run = RunTinyStream(entries, options);
    EXPECT_EQ(run.stats.late_dropped, 1u);
    EXPECT_EQ(run.stats.tasks_ingested, 5u);
    ASSERT_EQ(run.estimates.size(), 2u);
    EXPECT_EQ(run.estimates[1].t0, 10.0);
    EXPECT_EQ(run.estimates[1].tasks, 2u);  // the late record is gone
  }
  options.late_policy = LateRecordPolicy::kMergeIntoCurrent;
  {
    const TinyRun run = RunTinyStream(entries, options);
    EXPECT_EQ(run.stats.late_dropped, 0u);
    ASSERT_EQ(run.estimates.size(), 2u);
    EXPECT_EQ(run.estimates[1].t0, 10.0);
    EXPECT_EQ(run.estimates[1].tasks, 3u);  // folded into the open [10,...) window
  }
}

TEST(WindowAssembly, AllowedLatenessHoldsWindowsOpen) {
  WindowAssemblerOptions options = TenSecondWindows(2);
  options.allowed_lateness = 5.0;
  // 11.0: watermark 11 - 5 = 6 < 10, so [0,10) stays open and takes the 9.0 record;
  // 16.0: watermark 11 >= 10 closes it.
  const TinyRun run = RunTinyStream({1.0, 2.0, 11.0, 9.0, 16.0}, options);
  ASSERT_GE(run.emitted.size(), 1u);
  EXPECT_EQ(run.emitted[0].t1, 10.0);
  EXPECT_EQ(run.emitted[0].tasks, 3u);
  EXPECT_EQ(run.pulls[0], 5u);
  EXPECT_EQ(run.stats.late_dropped, 0u);
}

TEST(WindowAssembly, TailMergesIntoWindowClosedDuringFinish) {
  // Regression: with allowed_lateness > 0 a window's close can be deferred until the end
  // of the stream releases the watermark hold-back. The trailing merge must target THAT
  // window — the true last one — not an earlier close retained while records arrived.
  WindowAssemblerOptions options = TenSecondWindows(2);
  options.allowed_lateness = 5.0;
  // Watermark 21 - 5 = 16: only [0,10) closes while records arrive.
  const TinyRun run = RunTinyStream({1.0, 2.0, 11.0, 12.0, 21.0}, options);
  ASSERT_EQ(run.emitted.size(), 3u);
  EXPECT_EQ(run.emitted[0].t0, 0.0);
  EXPECT_EQ(run.emitted[0].tasks, 2u);
  EXPECT_EQ(run.emitted[1].t0, 10.0);  // deferred close, released at the end
  EXPECT_EQ(run.emitted[1].t1, 20.0);
  EXPECT_EQ(run.emitted[1].tasks, 2u);
  // The tail {21} merges into [10,20) — the window closed at the end of the stream.
  EXPECT_EQ(run.emitted[2].merged_tail_tasks, 1u);
  EXPECT_EQ(run.emitted[2].t0, 10.0);
  EXPECT_EQ(run.emitted[2].tasks, 3u);
  EXPECT_EQ(run.stats.tail_dropped, 0u);
}

TEST(WindowAssembly, TailMergesWhenEveryWindowClosesAtFinish) {
  // Regression: large lateness can defer every close to the end of the stream; the
  // 1-task tail must still find the previous window instead of being dropped.
  WindowAssemblerOptions options = TenSecondWindows(2);
  options.allowed_lateness = 25.0;
  const TinyRun run = RunTinyStream({1.0, 2.0, 21.0}, options);
  ASSERT_EQ(run.emitted.size(), 2u);
  EXPECT_EQ(run.pulls[0], 3u);  // nothing closed before the stream ended
  EXPECT_EQ(run.emitted[0].tasks, 2u);
  EXPECT_EQ(run.emitted[1].merged_tail_tasks, 1u);
  EXPECT_EQ(run.emitted[1].tasks, 3u);
  EXPECT_EQ(run.stats.tail_dropped, 0u);
}

TEST(WindowAssembly, FastForwardsOverHugeIdleGaps) {
  // Epoch-style timestamps far from t = 0 (or long idle gaps): ~28M empty 60 s windows
  // precede these records. The tracker's close loop still steps once per empty duration
  // (one addition each, keeping the batch grid's window ends bit for bit), but it does
  // not re-partition the pending records at each step; an O(1) jump over the gap is
  // still open (ROADMAP item 8).
  WindowAssemblerOptions options;
  options.window_duration = 60.0;
  options.min_tasks_per_window = 2;
  const double epoch = 1.7e9;
  const TinyRun run = RunTinyStream({epoch + 1.0, epoch + 2.0, epoch + 70.0}, options);
  ASSERT_EQ(run.emitted.size(), 2u);
  EXPECT_EQ(run.emitted[0].tasks, 2u);
  EXPECT_LE(run.emitted[0].t0, epoch + 1.0);
  EXPECT_GT(run.emitted[0].t1, epoch + 2.0);
  EXPECT_EQ(run.emitted[1].merged_tail_tasks, 1u);
}

TEST(WindowAssembly, PeakBufferIsIndependentOfTraceLength) {
  // Uniformly spaced entries: the lane's buffer high-water mark is one windowful
  // regardless of how long the stream runs — the bounded-memory contract.
  std::size_t peak_short = 0;
  std::size_t peak_long = 0;
  for (const std::size_t tasks : {200u, 2000u}) {
    std::vector<double> entries;
    for (std::size_t k = 0; k < tasks; ++k) {
      entries.push_back(0.5 + static_cast<double>(k));
    }
    const TinyRun run = RunTinyStream(entries, TenSecondWindows(2));
    EXPECT_EQ(run.stats.tasks_ingested, tasks);
    (tasks == 200u ? peak_short : peak_long) = run.stats.peak_buffered_tasks;
  }
  EXPECT_EQ(peak_short, peak_long);
  // One open windowful, the record that closes it, and the previous window's records
  // retained for the tail merge.
  EXPECT_GT(peak_long, 10u);
  EXPECT_LE(peak_long, 22u);
}

TEST(TakeDecisionRecords, SelectsAndSortsLateHeldAndMergedRecords) {
  // A lane that keeps records builds each window's log from this selection, in this
  // order, so late, held and merged-tail records land in entry-time order.
  const auto entries = [](const std::vector<TaskRecord>& records) {
    std::vector<double> out;
    for (const TaskRecord& record : records) {
      out.push_back(record.entry_time);
    }
    return out;
  };
  std::vector<TaskRecord> last_window;
  WindowSpanTracker::SpanDecision decision;
  // A record late behind a closed span, merged into the open window: it sorts first.
  std::vector<TaskRecord> pending = {TinyRecord(11.0), TinyRecord(5.0), TinyRecord(12.0)};
  decision.t0 = 10.0;
  decision.t1 = 20.0;
  decision.take_all = true;
  std::vector<TaskRecord> window = TakeDecisionRecords(decision, pending, last_window);
  EXPECT_EQ(entries(window), (std::vector<double>{5.0, 11.0, 12.0}));
  EXPECT_TRUE(pending.empty());
  // A record held under allowed lateness joins its span in order; the record past t1
  // stays pending.
  pending = {TinyRecord(1.0), TinyRecord(2.0), TinyRecord(11.0), TinyRecord(9.0)};
  decision.t0 = 0.0;
  decision.t1 = 10.0;
  decision.take_all = false;
  window = TakeDecisionRecords(decision, pending, last_window);
  EXPECT_EQ(entries(window), (std::vector<double>{1.0, 2.0, 9.0}));
  EXPECT_EQ(entries(pending), (std::vector<double>{11.0}));
  // A merged-tail re-close puts the retained window's records first and consumes them;
  // equal entry times keep their arrival order.
  last_window = {TinyRecord(11.0), TinyRecord(12.0, 0.5)};
  pending = {TinyRecord(21.0), TinyRecord(12.0, 0.25)};
  decision.t0 = 10.0;
  decision.t1 = 30.0;
  decision.take_all = true;
  decision.merged_tail_tasks = 2;
  window = TakeDecisionRecords(decision, pending, last_window);
  EXPECT_EQ(entries(window), (std::vector<double>{11.0, 12.0, 12.0, 21.0}));
  EXPECT_EQ(window[1].visits[0].departure, 12.5);
  EXPECT_EQ(window[2].visits[0].departure, 12.25);
  EXPECT_TRUE(last_window.empty());
  EXPECT_TRUE(pending.empty());
}

// --- StreamingEstimator ----------------------------------------------------------------

StreamingEstimatorOptions ShortStemOptions(double window_duration = 25.0) {
  StreamingEstimatorOptions options;
  options.window.window_duration = window_duration;
  options.stem.iterations = 30;
  options.stem.burn_in = 10;
  options.stem.wait_sweeps = 5;
  return options;
}

// Reference implementation: batch windowing via ExtractTaskWindow with the same grouping,
// seeding, and trailing-merge rules the streaming engine promises. Pins the semantics the
// estimator's windows and fits must reproduce bit-for-bit.
std::vector<WindowEstimate> ReferenceWindowedStem(const EventLog& truth,
                                                  const Observation& obs,
                                                  std::vector<double> init_rates,
                                                  std::uint64_t seed,
                                                  const StreamingEstimatorOptions& options) {
  const StemEstimator estimator(options.stem);
  const std::size_t min_needed =
      std::max<std::size_t>(options.window.min_tasks_per_window, 2);
  std::vector<WindowEstimate> estimates;
  std::vector<int> pending;
  std::vector<int> last_window_tasks;
  double window_start = 0.0;
  double window_end = options.window.window_duration;
  double last_window_t0 = 0.0;
  std::vector<double> rates = std::move(init_rates);
  std::vector<double> prev_input_rates = rates;
  std::size_t window_index = 0;

  const auto estimate_window = [&](const std::vector<int>& tasks, double t0, double t1,
                                   const std::vector<double>& warm, std::uint64_t index,
                                   std::size_t merged_tail) {
    const auto [window, window_obs] = ExtractTaskWindow(truth, obs, tasks);
    Rng rng(MixSeed(seed, index));
    const StemResult result = estimator.Run(window, window_obs, warm, rng);
    WindowEstimate est;
    est.t0 = t0;
    est.t1 = t1;
    est.tasks = tasks.size();
    est.merged_tail_tasks = merged_tail;
    est.rates = result.rates;
    est.mean_wait = result.mean_wait;
    est.fit_iterations = result.iterations_run;
    return est;
  };

  for (int task = 0; task < truth.NumTasks(); ++task) {
    const double entry = truth.TaskEntryTime(task);
    while (entry >= window_end) {
      if (pending.size() >= min_needed) {
        prev_input_rates = rates;
        WindowEstimate est = estimate_window(pending, window_start, window_end, rates,
                                             window_index, 0);
        rates = est.rates;
        estimates.push_back(std::move(est));
        last_window_tasks = pending;
        last_window_t0 = window_start;
        ++window_index;
        pending.clear();
        window_start = window_end;
      }
      window_end += options.window.window_duration;
    }
    pending.push_back(task);
  }
  if (pending.size() >= min_needed) {
    WindowEstimate est =
        estimate_window(pending, window_start, window_end, rates, window_index, 0);
    estimates.push_back(std::move(est));
  } else if (!pending.empty() && !estimates.empty()) {
    std::vector<int> merged = last_window_tasks;
    merged.insert(merged.end(), pending.begin(), pending.end());
    estimates.back() = estimate_window(merged, last_window_t0, window_end,
                                       prev_input_rates, window_index - 1, pending.size());
  } else if (pending.size() >= 2) {
    WindowEstimate est =
        estimate_window(pending, window_start, window_end, rates, window_index, 0);
    estimates.push_back(std::move(est));
  }
  return estimates;
}

TEST(StreamingEstimator, MatchesBatchReferenceBitIdentically) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};
  const std::uint64_t seed = 99;
  const StreamingEstimatorOptions options = ShortStemOptions();

  const auto reference = ReferenceWindowedStem(f.truth, f.obs, init, seed, options);
  LogReplayStream stream(f.truth, f.obs);
  StreamingEstimator estimator(init, seed, options);
  const auto streamed = estimator.Run(stream);

  ASSERT_GE(reference.size(), 3u);
  ExpectEstimatesIdentical(reference, streamed);
}

TEST(StreamingEstimator, CsvReplayMatchesInMemoryReplay) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};
  const StreamingEstimatorOptions options = ShortStemOptions();

  LogReplayStream memory_stream(f.truth, f.obs);
  StreamingEstimator memory_estimator(init, 17, options);
  const auto from_memory = memory_estimator.Run(memory_stream);

  std::stringstream log_csv;
  std::stringstream obs_csv;
  WriteEventLog(log_csv, f.truth);
  WriteObservation(obs_csv, f.obs);
  CsvReplayStream csv_stream(log_csv, -1, &obs_csv);
  StreamingEstimator csv_estimator(init, 17, options);
  const auto from_csv = csv_estimator.Run(csv_stream);

  ExpectEstimatesIdentical(from_memory, from_csv);
}

TEST(StreamingEstimator, TrailingWindowIsMergedNotDropped) {
  // Regression for the batch-era data loss: a final window with fewer than
  // min_tasks_per_window tasks used to vanish in the last flush. Now it merges into the
  // previous window's span and the last estimate is re-fit over the union.
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 8.0);
  Rng rng(31);
  EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 120), rng);
  const Observation obs = Observation::FullyObserved(truth);

  StreamingEstimatorOptions options;
  // Choose a duration so the last window holds only a couple of tasks: entries run to
  // roughly 120/4 = 30s; a 12s window leaves a small remainder with high probability.
  options.window.window_duration = 12.0;
  options.window.min_tasks_per_window = 30;
  options.stem.iterations = 20;
  options.stem.burn_in = 5;
  options.stem.wait_sweeps = 0;

  LogReplayStream stream(truth, obs);
  StreamingEstimator estimator({1.0, 1.0}, Rng(7).NextU64(), options);
  const auto estimates = estimator.Run(stream);
  ASSERT_GE(estimates.size(), 1u);
  std::size_t total_tasks = 0;
  for (const auto& est : estimates) {
    total_tasks += est.tasks;
  }
  const std::size_t merged = estimates.back().merged_tail_tasks;
  // Every task is accounted for: either the tail made a full window (merged == 0 and the
  // counts already sum) or it was merged into the final estimate.
  EXPECT_EQ(total_tasks, static_cast<std::size_t>(truth.NumTasks()));
  // The final estimate's span covers the last task's entry time.
  EXPECT_GE(estimates.back().t1, truth.TaskEntryTime(truth.NumTasks() - 1));
  if (merged > 0) {
    EXPECT_LT(merged, std::max<std::size_t>(options.window.min_tasks_per_window, 2));
  }
}

TEST(StreamingEstimator, TinyStreamWithNoFullWindowStillEstimates) {
  // 3 tasks, all inside the first (never-closing) window: with no previous window to
  // merge into, a >= 2-task remainder is emitted instead of silently dropped.
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 8.0);
  Rng rng(3);
  EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 3), rng);
  const Observation obs = Observation::FullyObserved(truth);

  StreamingEstimatorOptions options;
  options.window.window_duration = 1000.0;
  options.window.min_tasks_per_window = 8;
  options.stem.iterations = 10;
  options.stem.burn_in = 2;
  options.stem.wait_sweeps = 0;
  LogReplayStream stream(truth, obs);
  StreamingEstimator estimator({1.0, 1.0}, Rng(9).NextU64(), options);
  const auto estimates = estimator.Run(stream);
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_EQ(estimates.front().tasks, 3u);
}

TEST(StreamingEstimator, ReportsThroughputStats) {
  const Fixture f;
  const StreamingEstimatorOptions options = ShortStemOptions();
  LogReplayStream stream(f.truth, f.obs);
  StreamingEstimator estimator({1.0, 1.0, 1.0}, 1, options);
  const auto estimates = estimator.Run(stream);
  const StreamingStats& stats = estimator.Stats();
  EXPECT_EQ(stats.tasks_ingested, static_cast<std::size_t>(f.truth.NumTasks()));
  EXPECT_EQ(stats.windows_estimated, estimates.size());
  EXPECT_GT(stats.tasks_per_second, 0.0);
  EXPECT_GT(stats.total_wall_seconds, 0.0);
  EXPECT_EQ(stats.late_dropped, 0u);
  EXPECT_GT(stats.peak_buffered_tasks, 0u);
  EXPECT_LT(stats.peak_buffered_tasks, static_cast<std::size_t>(f.truth.NumTasks()));
}

// --- Window-local arrival-rate anchoring -------------------------------------------------

TEST(StreamingEstimator, WindowLocalAnchoringFixesLambdaDecay) {
  // Regression for the PR-4 forecaster wart: the StEM lambda iterate divides the task
  // count by the ABSOLUTE last entry time, so on a stream whose windows sit far from
  // t = 0 it decays toward zero. Window-local anchoring divides by the window's own
  // span instead. Default off preserves the historical behavior.
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 10.0);
  Rng rng(19);
  EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 1200), rng);
  const Observation obs = Observation::FullyObserved(truth);
  // Shift the whole trace 1000 s into the future (an epoch-style collector timestamp).
  const double shift = 1000.0;
  std::vector<TaskRecord> records;
  for (int task = 0; task < truth.NumTasks(); ++task) {
    TaskRecord record = MakeTaskRecord(truth, obs, task);
    record.entry_time += shift;
    for (TaskVisit& visit : record.visits) {
      visit.arrival += shift;
      visit.departure += shift;
    }
    records.push_back(std::move(record));
  }

  StreamingEstimatorOptions options;
  options.window.window_duration = 50.0;
  options.stem.iterations = 30;
  options.stem.burn_in = 10;
  options.stem.wait_sweeps = 0;

  qnet_testing::VectorStream legacy_stream(records, 2);
  StreamingEstimator legacy({1.0, 1.0}, 3, options);
  const auto unanchored = legacy.Run(legacy_stream);

  options.window_local_arrival_rate = true;
  qnet_testing::VectorStream anchored_stream(records, 2);
  StreamingEstimator anchored({1.0, 1.0}, 3, options);
  const auto window_local = anchored.Run(anchored_stream);

  ASSERT_GE(window_local.size(), 3u);
  ASSERT_EQ(window_local.size(), unanchored.size());
  // Skip window 0: its span starts at the t = 0 grid origin, where the two anchorings
  // coincide. Every later window sits ~1000 s from the origin.
  for (std::size_t w = 1; w < window_local.size(); ++w) {
    EXPECT_FALSE(unanchored[w].window_local_arrival_rate);
    EXPECT_TRUE(window_local[w].window_local_arrival_rate);
    // Decayed: the absolute anchor divides ~200 tasks by ~1000+ s.
    EXPECT_LT(unanchored[w].rates[0], 1.0) << "window " << w;
    // Window-local: tracks the true arrival rate of 4/s.
    EXPECT_NEAR(window_local[w].rates[0], 4.0, 1.0) << "window " << w;
    // The empirical rate the forecaster falls back to agrees with the anchored fit —
    // except on the final window, whose span may extend past the last arrival (grid
    // alignment / tail merge), deflating the empirical count-per-span.
    if (w + 1 < window_local.size()) {
      const double empirical = static_cast<double>(window_local[w].tasks) /
                               (window_local[w].t1 - window_local[w].t0);
      EXPECT_NEAR(window_local[w].rates[0], empirical, 0.75) << "window " << w;
    }
  }
}

TEST(StreamingEstimator, ExplicitZeroOriginIsBitIdenticalToDefault) {
  // The anchoring plumbing must not perturb the default path: origin 0.0 subtracts
  // exactly nothing from the M-step's queue-0 sum.
  const Fixture f;
  StreamingEstimatorOptions options = ShortStemOptions();
  LogReplayStream default_stream(f.truth, f.obs);
  StreamingEstimator default_estimator({1.0, 1.0, 1.0}, 29, options);
  const auto by_default = default_estimator.Run(default_stream);

  options.stem.arrival_time_origin = 0.0;  // explicit no-op
  LogReplayStream explicit_stream(f.truth, f.obs);
  StreamingEstimator explicit_estimator({1.0, 1.0, 1.0}, 29, options);
  const auto by_explicit = explicit_estimator.Run(explicit_stream);
  ExpectEstimatesIdentical(by_default, by_explicit);
}

// --- Mean-field fast path ----------------------------------------------------------------

TEST(StreamingEstimator, FastPathOffIsBitIdenticalToDefault) {
  // Carrying fast-path configuration with the mode off must not perturb the sampler
  // path by a bit: mean_field options and the degrade budget are dormant under kOff.
  const Fixture f;
  LogReplayStream default_stream(f.truth, f.obs);
  StreamingEstimator default_estimator({1.0, 1.0, 1.0}, 61, ShortStemOptions());
  const auto by_default = default_estimator.Run(default_stream);

  StreamingEstimatorOptions options = ShortStemOptions();
  options.fast_path = FastPathMode::kOff;
  options.degrade_task_budget = 10;  // dormant without kDegrade
  options.mean_field.fallback_rate = 123.0;
  LogReplayStream explicit_stream(f.truth, f.obs);
  StreamingEstimator explicit_estimator({1.0, 1.0, 1.0}, 61, options);
  const auto by_explicit = explicit_estimator.Run(explicit_stream);

  ExpectEstimatesIdentical(by_default, by_explicit);
  EXPECT_EQ(explicit_estimator.Stats().degraded_windows, 0u);
  for (const WindowEstimate& estimate : by_default) {
    EXPECT_FALSE(estimate.degraded);
    EXPECT_EQ(estimate.fit_iterations, 30u);  // full StEM run per window
  }
}

TEST(StreamingEstimator, WarmStartFastPathSavesIterationsDeterministically) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};

  StreamingEstimatorOptions off = ShortStemOptions();
  LogReplayStream off_stream(f.truth, f.obs);
  StreamingEstimator off_estimator(init, 67, off);
  const auto baseline = off_estimator.Run(off_stream);
  ASSERT_GE(baseline.size(), 3u);

  StreamingEstimatorOptions warm = ShortStemOptions();
  warm.fast_path = FastPathMode::kWarmStart;
  warm.stem.convergence_tol = 0.05;
  warm.stem.convergence_patience = 2;

  LogReplayStream stream(f.truth, f.obs);
  StreamingEstimator estimator(init, 67, warm);
  const std::vector<WindowEstimate> estimates = estimator.Run(stream);
  const std::size_t iterations_total = estimator.Stats().fit_iterations_total;

  // Early stop must actually bite (that is the throughput win) ...
  EXPECT_LT(iterations_total, baseline.size() * 30u);
  EXPECT_GT(iterations_total, 0u);
  for (const WindowEstimate& estimate : estimates) {
    EXPECT_FALSE(estimate.degraded);
    EXPECT_GE(estimate.fit_iterations, warm.stem.burn_in + 3u);
  }
  // ... while the estimates stay close to the cold-started full-length run.
  ASSERT_EQ(estimates.size(), baseline.size());
  for (std::size_t w = 0; w < baseline.size(); ++w) {
    for (std::size_t q = 1; q < 3; ++q) {
      EXPECT_NEAR(estimates[w].rates[q], baseline[w].rates[q],
                  0.2 * baseline[w].rates[q])
          << "window " << w << " q=" << q;
    }
  }
}

TEST(StreamingEstimator, MeanFieldOnlyModeIsSamplerFreeAndBitIdentical) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};
  StreamingEstimatorOptions options = ShortStemOptions();
  options.fast_path = FastPathMode::kMeanFieldOnly;

  std::vector<std::vector<WindowEstimate>> runs;
  std::size_t degraded = 0;
  for (const std::uint64_t seed : {71u, 73u}) {
    LogReplayStream stream(f.truth, f.obs);
    StreamingEstimator estimator(init, seed, options);
    runs.push_back(estimator.Run(stream));
    degraded = estimator.Stats().degraded_windows;
  }
  // Sampler-free: the seed is never consumed, so even DIFFERENT seeds are bit-identical.
  ASSERT_GE(runs.front().size(), 3u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ExpectEstimatesIdentical(runs.front(), runs[i]);
  }
  EXPECT_GE(degraded, runs.front().size());
  for (const WindowEstimate& estimate : runs.front()) {
    EXPECT_TRUE(estimate.degraded);
    EXPECT_EQ(estimate.fit_iterations, 0u);
    ASSERT_EQ(estimate.rates.size(), 3u);
    ASSERT_EQ(estimate.mean_wait.size(), 3u);
    // Mean-field service estimates land on the right scale (truth: mu = 8, 9).
    EXPECT_NEAR(1.0 / estimate.rates[1], 1.0 / 8.0, 0.5 / 8.0);
    EXPECT_NEAR(1.0 / estimate.rates[2], 1.0 / 9.0, 0.5 / 9.0);
  }
}

TEST(StreamingEstimator, DegradeModeTriggersOnWindowTaskCount) {
  const Fixture f;
  const std::vector<double> init = {1.0, 1.0, 1.0};
  StreamingEstimatorOptions options = ShortStemOptions();
  options.fast_path = FastPathMode::kDegrade;
  options.degrade_task_budget = 100;

  LogReplayStream stream(f.truth, f.obs);
  StreamingEstimator estimator(init, 79, options);
  const auto estimates = estimator.Run(stream);
  ASSERT_GE(estimates.size(), 3u);

  std::size_t degraded = 0;
  for (const WindowEstimate& estimate : estimates) {
    // The trigger is the window's task count — reproducible from the estimate itself.
    EXPECT_EQ(estimate.degraded, estimate.tasks > options.degrade_task_budget);
    EXPECT_EQ(estimate.fit_iterations == 0, estimate.degraded);
    degraded += estimate.degraded ? 1 : 0;
  }
  EXPECT_GT(degraded, 0u) << "budget chosen so the busiest windows degrade";
  EXPECT_LT(degraded, estimates.size()) << "budget chosen so quiet windows still sample";
  EXPECT_EQ(estimator.Stats().degraded_windows, degraded);

  // Deterministic: same stream, same options, same bits.
  LogReplayStream again_stream(f.truth, f.obs);
  StreamingEstimator again(init, 79, options);
  ExpectEstimatesIdentical(estimates, again.Run(again_stream));
}

TEST(StreamingEstimator, WindowIsEmittedBeforeTheNextPull) {
  // On a caller pinned to one CPU, window w is fitted and handed to on_window while the
  // record that closed it is the last one pulled: the stream is not asked for another
  // first. With a fit pool of W > 1 workers the fit runs there while the caller keeps
  // pulling; the bound of 2W fits in flight then caps the delay: window w is emitted no
  // earlier than its close and no later than the close of window w + 2W (one fit per
  // window at K = 1). kWarmStart, because a single kOff lane always fits inline.
  const Fixture f;
  const auto run = [&](std::vector<std::size_t>* pulls_at_emit,
                       std::vector<double>* window_ends) {
    LogReplayStream replay(f.truth, f.obs);
    CountingStream stream(replay);
    StreamingEstimatorOptions options = ShortStemOptions(5.0);  // ~20 windows
    options.fast_path = FastPathMode::kWarmStart;
    options.on_window = [&](const WindowEstimate& estimate) {
      pulls_at_emit->push_back(stream.Pulls());
      window_ends->push_back(estimate.t1);
    };
    StreamingEstimator estimator({1.0, 1.0, 1.0}, 3, options);
    return estimator.Run(stream).size();
  };
  // With zero lateness the closing record is the first whose entry reaches t1; a window
  // closed only by the end of the stream has none (0).
  const auto closing_pull = [&](double t1) {
    for (int task = 0; task < f.truth.NumTasks(); ++task) {
      if (f.truth.TaskEntryTime(task) >= t1) {
        return static_cast<std::size_t>(task) + 1;
      }
    }
    return std::size_t{0};
  };
  std::vector<std::size_t> pulls_at_emit;
  std::vector<double> window_ends;
  std::size_t windows = 0;
  {
    const qnet_testing::ScopedOneCpu one_cpu;
    windows = run(&pulls_at_emit, &window_ends);
  }
  ASSERT_GE(windows, 12u);
  const std::vector<double> inline_ends = window_ends;
  std::size_t checked = 0;
  for (std::size_t w = 0; w < window_ends.size(); ++w) {
    if (const std::size_t pull = closing_pull(window_ends[w]); pull > 0) {
      EXPECT_EQ(pulls_at_emit[w], pull) << "window " << w;
      ++checked;
    }
  }
  EXPECT_GE(checked, windows - 1);

  for (const std::size_t width : {0u, 2u, 4u}) {
    const std::size_t pool_width = width == 0 ? AffinityWidth() : width;
    SCOPED_TRACE("fit pool width " + std::to_string(pool_width));
    pulls_at_emit.clear();
    window_ends.clear();
    if (width == 0) {
      ASSERT_EQ(run(&pulls_at_emit, &window_ends), windows);
    } else {
      const qnet_testing::ScopedFitPoolWidth seam(width);
      ASSERT_EQ(run(&pulls_at_emit, &window_ends), windows);
    }
    EXPECT_EQ(window_ends, inline_ends) << "emitted once each, in window order";
    for (std::size_t w = 0; w < window_ends.size(); ++w) {
      const std::size_t pull = closing_pull(window_ends[w]);
      if (pull == 0) {
        continue;
      }
      EXPECT_GE(pulls_at_emit[w], pull) << "window " << w;
      const std::size_t bound_window = w + 2 * pool_width;
      if (bound_window < window_ends.size()) {
        if (const std::size_t bound = closing_pull(window_ends[bound_window]); bound > 0) {
          EXPECT_LE(pulls_at_emit[w], bound) << "window " << w;
        }
      }
    }
  }
}

// --- LiveSimStream ---------------------------------------------------------------------

TEST(LiveSimStream, ProducesFeasibleEntryOrderedTasks) {
  const QueueingNetwork net = MakeTandemNetwork(3.0, {6.0, 7.0});
  LiveSimOptions options;
  options.max_tasks = 200;
  options.arrival_rate = 3.0;
  LiveSimStream stream(net, options, 42);
  EXPECT_EQ(stream.NumQueues(), net.NumQueues());

  WindowLogBuilder builder(net.NumQueues());
  TaskRecord record;
  std::size_t count = 0;
  double last_entry = 0.0;
  while (stream.Next(record)) {
    EXPECT_GT(record.entry_time, last_entry);
    last_entry = record.entry_time;
    ASSERT_FALSE(record.visits.empty());
    EXPECT_EQ(record.visits.front().arrival, record.entry_time);
    builder.Add(record);
    ++count;
  }
  EXPECT_EQ(count, options.max_tasks);
  const auto [log, obs] = builder.Finish();
  std::string why;
  EXPECT_TRUE(log.IsFeasible(1e-9, &why)) << why;
  EXPECT_EQ(obs.observed_tasks.size(), static_cast<std::size_t>(log.NumTasks()));
}

TEST(LiveSimStream, DeterministicForAGivenSeed) {
  const QueueingNetwork net = MakeTandemNetwork(3.0, {6.0, 7.0});
  LiveSimOptions options;
  options.max_tasks = 80;
  options.arrival_rate = 3.0;
  options.observed_fraction = 0.5;
  LiveSimStream a(net, options, 9);
  LiveSimStream b(net, options, 9);
  TaskRecord ra;
  TaskRecord rb;
  while (a.Next(ra)) {
    ASSERT_TRUE(b.Next(rb));
    EXPECT_EQ(ra, rb);
  }
  EXPECT_FALSE(b.Next(rb));
}

TEST(LiveSimStream, HorizonBoundsTheStream) {
  const QueueingNetwork net = MakeSingleQueueNetwork(5.0, 20.0);
  LiveSimOptions options;
  options.horizon = 10.0;
  options.arrival_rate = 5.0;
  LiveSimStream stream(net, options, 13);
  TaskRecord record;
  std::size_t count = 0;
  while (stream.Next(record)) {
    EXPECT_LE(record.entry_time, options.horizon);
    ++count;
  }
  EXPECT_GT(count, 10u);  // ~50 expected
}

TEST(LiveSimStream, DrivesTheStreamingEstimator) {
  // End-to-end: live simulator -> windows -> windowed StEM recovers the service rate.
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 8.0);
  LiveSimOptions sim_options;
  sim_options.max_tasks = 600;
  sim_options.arrival_rate = 4.0;
  sim_options.observed_fraction = 0.5;
  LiveSimStream stream(net, sim_options, 11);

  StreamingEstimatorOptions options;
  options.window.window_duration = 30.0;
  options.stem.iterations = 40;
  options.stem.burn_in = 15;
  options.stem.wait_sweeps = 0;
  StreamingEstimator estimator({1.0, 1.0}, 21, options);
  const auto estimates = estimator.Run(stream);
  ASSERT_GE(estimates.size(), 3u);
  for (const auto& window : estimates) {
    ASSERT_EQ(window.rates.size(), 2u);
    EXPECT_NEAR(1.0 / window.rates[1], 1.0 / 8.0, 0.08) << "window at " << window.t0;
  }
  EXPECT_EQ(estimator.Stats().tasks_ingested, sim_options.max_tasks);
}

TEST(LiveSimStream, FaultScheduleShowsUpInWindowEstimates) {
  // The queue slows 4x mid-stream; the streaming engine sees it live.
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 10.0);
  FaultSchedule faults;
  faults.AddSlowdown(1, 150.0, 1.0e9, 4.0);
  LiveSimOptions sim_options;
  sim_options.max_tasks = 600;
  sim_options.arrival_rate = 2.0;
  sim_options.faults = &faults;
  sim_options.observed_fraction = 0.6;
  LiveSimStream stream(net, sim_options, 11);

  StreamingEstimatorOptions options;
  options.window.window_duration = 75.0;
  options.stem.iterations = 40;
  options.stem.burn_in = 15;
  options.stem.wait_sweeps = 0;
  StreamingEstimator estimator({1.0, 1.0}, 23, options);
  const auto estimates = estimator.Run(stream);
  ASSERT_GE(estimates.size(), 3u);
  const double early_service = 1.0 / estimates.front().rates[1];
  const double late_service = 1.0 / estimates.back().rates[1];
  EXPECT_NEAR(early_service, 0.1, 0.05);
  EXPECT_GT(late_service, 2.0 * early_service);
}

TEST(LiveSimStream, AllOnesArrivalScaleIsBitIdenticalToNoSchedule) {
  // The modulation contract: the gap after an arrival at t is drawn at rate
  // arrival_rate * ArrivalFactor(t). A factor of exactly 1.0 multiplies the rate by
  // 1.0, so every Exponential draw — and therefore every record — is the same bits as
  // the unmodulated stream. This is what makes arrival scaling safe to leave wired in.
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 8.0);
  LiveSimOptions base;
  base.max_tasks = 300;
  base.arrival_rate = 4.0;
  LiveSimStream plain(net, base, 17);

  FaultSchedule faults;
  faults.AddArrivalScale(0.0, 1.0e9, 1.0);
  faults.AddArrivalScale(10.0, 20.0, 1.0);  // overlapping all-1.0 segments too
  LiveSimOptions modulated = base;
  modulated.faults = &faults;
  LiveSimStream scaled(net, modulated, 17);

  TaskRecord a;
  TaskRecord b;
  std::size_t count = 0;
  while (true) {
    const bool more_a = plain.Next(a);
    const bool more_b = scaled.Next(b);
    ASSERT_EQ(more_a, more_b);
    if (!more_a) {
      break;
    }
    ASSERT_EQ(a, b) << "record " << count;
    ++count;
  }
  EXPECT_EQ(count, base.max_tasks);
}

// The first `limit` records of a live stream, folded into a bit-exact digest plus a few
// readable values. The digest is FNV-1a over the bit patterns of each record's entry
// time and, per visit, its state, queue, arrival, departure and both observation flags.
struct LiveTraceSummary {
  std::size_t records = 0;
  std::size_t observed_records = 0;
  double last_entry = 0.0;
  double last_departure = 0.0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;

  void Mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xffU;
      digest *= 0x100000001b3ULL;
    }
  }
  void Mix(double value) { Mix(std::bit_cast<std::uint64_t>(value)); }
};

LiveTraceSummary SummarizeLiveTrace(LiveSimStream& stream, std::size_t limit) {
  LiveTraceSummary summary;
  TaskRecord record;
  while (summary.records < limit && stream.Next(record)) {
    ++summary.records;
    summary.observed_records += record.visits.front().arrival_observed ? 1 : 0;
    summary.last_entry = record.entry_time;
    summary.last_departure = record.visits.back().departure;
    summary.Mix(record.entry_time);
    summary.Mix(static_cast<std::uint64_t>(record.visits.size()));
    for (const TaskVisit& visit : record.visits) {
      summary.Mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(visit.state)) |
                  static_cast<std::uint64_t>(static_cast<std::uint32_t>(visit.queue)) << 32);
      summary.Mix(visit.arrival);
      summary.Mix(visit.departure);
      summary.Mix(static_cast<std::uint64_t>(visit.arrival_observed) |
                  static_cast<std::uint64_t>(visit.departure_observed) << 1);
    }
  }
  return summary;
}

void ExpectLiveTrace(LiveSimStream& stream, std::size_t limit,
                     const LiveTraceSummary& golden) {
  const LiveTraceSummary summary = SummarizeLiveTrace(stream, limit);
  EXPECT_EQ(summary.records, golden.records);
  EXPECT_EQ(summary.observed_records, golden.observed_records);
  EXPECT_EQ(summary.last_entry, golden.last_entry);
  EXPECT_EQ(summary.last_departure, golden.last_departure);
  EXPECT_EQ(summary.digest, golden.digest) << std::hex << summary.digest;
}

// Live traces pinned to goldens recorded from the live simulator as it ran before the
// batch and live event loops became one: every draw (interarrival, route, observation
// coin, service) must keep its place in the stream, ties included.
TEST(LiveSimStream, ThreeTierFaultTraceMatchesGolden) {
  // Front server slowed 3x over [20, 40) and the arrival rate scaled 1.5x over [30, 50):
  // the first 200 records span both segments.
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 3.0;
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  FaultSchedule faults;
  faults.AddSlowdown(1, 20.0, 40.0, 3.0);
  faults.AddArrivalScale(30.0, 50.0, 1.5);
  LiveSimOptions options;
  options.max_tasks = 1000;
  options.arrival_rate = 3.0;
  options.faults = &faults;
  options.observed_fraction = 0.2;
  LiveSimStream stream(net, options, 2024);
  ExpectLiveTrace(stream, 200, {200, 40, 0x1.e61c93ab61d1cp+5, 0x1.ed23154c4fae9p+5,
                                   0xd2ac43d9473f1f19ULL});
}

TEST(LiveSimStream, HiddenFinalDepartureTraceMatchesGolden) {
  // The whole stream up to its max_tasks cut, with exit times unobserved.
  const QueueingNetwork net = MakeTandemNetwork(3.0, {6.0, 5.0});
  LiveSimOptions options;
  options.max_tasks = 150;
  options.arrival_rate = 3.0;
  options.observed_fraction = 0.5;
  options.observe_final_departure = false;
  LiveSimStream stream(net, options, 77);
  ExpectLiveTrace(stream, 1000, {150, 81, 0x1.d28d9bdf35a89p+5, 0x1.d8ac4244f5c05p+5,
                                    0xc3511cf8cf1e8d15ULL});
}

TEST(LiveSimStream, HorizonTraceMatchesGolden) {
  // Geometric routes (a retry loop) until the horizon stops spawning.
  const QueueingNetwork net = MakeFeedbackNetwork(2.0, 6.0, 0.4);
  LiveSimOptions options;
  options.horizon = 100.0;
  options.arrival_rate = 2.0;
  options.observed_fraction = 0.3;
  LiveSimStream stream(net, options, 5);
  ExpectLiveTrace(stream, 1000, {214, 63, 0x1.8e55b282f3b65p+6, 0x1.935f8ae6b40e1p+6,
                                    0xc6984f09fc1a9882ULL});
}

TEST(LiveSimStream, MatchesTheBatchSimulatorOnDeterministicServices) {
  // Deterministic services draw nothing, so the live stream's interleaved draws and the
  // batch simulator's routes-then-services order consume the same (empty) service
  // stream, and the physics must agree bit for bit: the live records' entries and
  // routes, fed to SimulateWithRoutes, reproduce every visit's arrival and departure.
  // The slowdown overloads the front server for a while, so queues build and drain.
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 3.0;
  QueueingNetwork net = MakeThreeTierNetwork(config);
  for (int q = 1; q < net.NumQueues(); ++q) {
    net.SetService(q, std::make_unique<Deterministic>(0.2 + 0.05 * q));
  }
  FaultSchedule faults;
  faults.AddSlowdown(1, 20.0, 40.0, 2.0);
  LiveSimOptions options;
  options.max_tasks = 400;
  options.arrival_rate = 3.0;
  options.faults = &faults;
  LiveSimStream stream(net, options, 31);

  std::vector<TaskRecord> records;
  TaskRecord record;
  while (stream.Next(record)) {
    records.push_back(record);
  }
  ASSERT_EQ(records.size(), options.max_tasks);
  std::vector<double> entries;
  std::vector<std::vector<RouteStep>> routes;
  for (const TaskRecord& live : records) {
    entries.push_back(live.entry_time);
    routes.emplace_back();
    for (const TaskVisit& visit : live.visits) {
      routes.back().push_back(RouteStep{visit.state, visit.queue});
    }
  }
  SimOptions sim_options;
  sim_options.faults = &faults;
  Rng rng(1);
  const EventLog batch = SimulateWithRoutes(net, entries, routes, rng, sim_options);

  double max_wait = 0.0;
  for (int k = 0; k < batch.NumTasks(); ++k) {
    const std::vector<EventId>& events = batch.TaskEvents(k);
    const std::vector<TaskVisit>& visits = records[static_cast<std::size_t>(k)].visits;
    ASSERT_EQ(events.size(), visits.size() + 1) << "task " << k;
    for (std::size_t j = 0; j < visits.size(); ++j) {
      ASSERT_EQ(batch.Arrival(events[j + 1]), visits[j].arrival) << "task " << k;
      ASSERT_EQ(batch.Departure(events[j + 1]), visits[j].departure) << "task " << k;
      max_wait = std::max(max_wait, batch.WaitTime(events[j + 1]));
    }
  }
  EXPECT_GT(max_wait, 1.0);  // the slowdown really queued tasks
}

// High-water marks of TasksInFlight() and of the arena's retained step rows over a whole
// live stream.
struct LiveMemoryHighWater {
  std::size_t tasks_in_flight = 0;
  std::size_t arena_rows = 0;
};

LiveMemoryHighWater RunLiveStreamToEnd(const QueueingNetwork& net, std::size_t max_tasks,
                                       std::uint64_t seed) {
  LiveSimOptions options;
  options.max_tasks = max_tasks;
  options.arrival_rate = 3.0;
  options.observed_fraction = 0.2;
  LiveSimStream stream(net, options, seed);
  LiveMemoryHighWater high;
  TaskRecord record;
  std::size_t count = 0;
  while (stream.Next(record)) {
    ++count;
    high.tasks_in_flight = std::max(high.tasks_in_flight, stream.TasksInFlight());
    high.arena_rows = std::max(high.arena_rows, stream.Arena().route_steps.size());
  }
  EXPECT_EQ(count, max_tasks);
  EXPECT_EQ(stream.TasksInFlight(), 0u);
  return high;
}

TEST(LiveSimStream, MemoryStaysBoundedByTasksInFlight) {
  // The emitted prefix of the arena is compacted away, so a stream ten times longer on
  // the same seed retains about as many tasks and rows as a short one. Not exactly as
  // many: the in-flight maximum of a stable queue still creeps up (like the log of the
  // run length) as a longer run meets rarer bursts, so the bound is 2x, far below the
  // 10x that retaining every task would show.
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 3.0;
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  const LiveMemoryHighWater short_run = RunLiveStreamToEnd(net, 2000, 19);
  const LiveMemoryHighWater long_run = RunLiveStreamToEnd(net, 20000, 19);
  EXPECT_LE(long_run.tasks_in_flight, 2 * short_run.tasks_in_flight);
  EXPECT_LE(long_run.arena_rows, 2 * short_run.arena_rows);
  // Compaction keeps the arena within a fixed batch of 256 emitted tasks plus twice the
  // tasks in flight (three steps per task here).
  EXPECT_LE(long_run.arena_rows, 3 * (256 + 2 * long_run.tasks_in_flight));
}

TEST(LiveSimStream, ArrivalScaleSegmentsModulateTheLoad) {
  // A 3x segment over the middle third of the horizon should land ~3x the tasks of a
  // plain third (piecewise-constant modulated Poisson, rate lagging one gap).
  const QueueingNetwork net = MakeSingleQueueNetwork(4.0, 40.0);
  FaultSchedule faults;
  faults.AddArrivalScale(100.0, 200.0, 3.0);
  LiveSimOptions options;
  options.horizon = 300.0;
  options.arrival_rate = 4.0;
  options.faults = &faults;
  LiveSimStream stream(net, options, 23);

  std::size_t early = 0;
  std::size_t middle = 0;
  std::size_t late = 0;
  TaskRecord record;
  while (stream.Next(record)) {
    if (record.entry_time < 100.0) {
      ++early;
    } else if (record.entry_time < 200.0) {
      ++middle;
    } else {
      ++late;
    }
  }
  EXPECT_NEAR(static_cast<double>(early), 400.0, 100.0);
  EXPECT_NEAR(static_cast<double>(late), 400.0, 100.0);
  EXPECT_NEAR(static_cast<double>(middle), 1200.0, 200.0);
  EXPECT_GT(middle, 2 * early);
  EXPECT_GT(middle, 2 * late);
}

}  // namespace
}  // namespace qnet
