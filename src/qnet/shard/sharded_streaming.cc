#include "qnet/shard/sharded_streaming.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <utility>

#include "qnet/infer/stem.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/shard/lane_merger.h"
#include "qnet/shard/lane_queue.h"
#include "qnet/shard/lane_router.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"
#include "qnet/support/stopwatch.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {
namespace {

// Whether lanes keep their records: only a window that StEM fits needs them, for its log.
bool KeepsRecords(const ShardedStreamingOptions& options) {
  return options.stream.fast_path != FastPathMode::kMeanFieldOnly;
}

// One lane: a per-window record fold (plus a record buffer and log build, for lanes
// that may fit StEM) and a warm-started fit chain. Accept takes one routed record and
// Close answers one span decision; the router calls them directly (the in-thread
// arrangement) or, for a lane that keeps records in a fleet of K > 1, a worker thread
// calls them from the lane's queue (Drain). Everything the lane does is a pure function
// of its item sequence, which the router makes a pure function of the stream.
//
// The lane folds each record into its open window's MeanFieldRecordFold when it takes
// it. The router passes the end of the span that was open when it routed the record: a
// record below that end belongs to the next decision, and one at or past it is held,
// with its arrival index, until the span it belongs to opens (the router passes the
// new span's end with a push's last decision) or, failing that, until the close that
// takes it. The fold sums responses in (entry, arrival) order, so the window's
// statistics are bit-identical to folding its sorted records at the close; a record
// folded in arrival order costs no sort. A sampler-free lane (kMeanFieldOnly) gets each
// record after the close decisions its push made, so it holds a record only past the
// open span under allowed_lateness > 0, and it keeps no other record: nothing is
// buffered, selected or re-folded at the close.
//
// A lane whose windows may reach StEM also keeps its records for the log build:
// TakeDecisionRecords selects and sorts them at the close. Such a lane gets each record
// before the decisions its push made (see Run), so it also holds the record that closes
// a window, which then opens the next one. Records arrive by swap from the
// lane queue or by one copy from the stream's record into recycled capacity. Records
// that leave the lane at a close (a window that is not kept for a merged tail, or the
// retained window it replaces) go back into a spare pool, so record capacity circulates
// and the steady-state record path allocates nothing per task. The pool holds at most
// the lane's peak of live records: it grows only when the lane finds it empty, i.e.
// when every record the lane owns is live.
class LaneWorker {
 public:
  LaneWorker(std::size_t lane, int num_queues, const ShardedStreamingOptions& options,
             std::vector<double> init_rates, std::uint64_t seed, LaneMerger* merger)
      : lane_(lane),
        options_(options),
        merger_(merger),
        keep_records_(KeepsRecords(options)),
        builder_(num_queues),
        fold_(num_queues),
        chain_(std::move(init_rates), seed, options.stream.window_local_arrival_rate,
               /*salted=*/options.lanes > 1, /*lane=*/lane),
        mean_field_(options.stream.mean_field) {}

  // Event-time progress of the lane, sampled by the router for lag stats.
  double ConsumedWatermark() const { return watermark_.load(std::memory_order_relaxed); }
  LaneStats& Stats() { return stats_; }

  // In-thread intake: `record` is the stream's own, copied only into a lane that keeps
  // records. `span_end` is the open span's end when the router routed it.
  void Accept(const TaskRecord& record, double span_end) {
    Take(record, span_end);
    if (keep_records_) {
      Keep() = record;
    }
  }

  // Answers one span decision: completes the lane's share of the window, fits it, and
  // posts the fit to the merger. `next_span_end` is the end of the span open after the
  // decision when the router knows it (-infinity when another decision follows): held
  // records below it belong to that span and join it at once, ahead of its other
  // records.
  void Close(const WindowSpanTracker::SpanDecision& decision, double next_span_end) {
    ++stats_.windows_closed;
    ReleaseHeld(decision.take_all, decision.t1);
    const bool merged_tail = decision.merged_tail_tasks > 0;
    if (merged_tail) {
      fold_.MergePrevious();
    }
    std::vector<TaskRecord> records;
    if (keep_records_) {
      // Selection only; the log build (StEM windows only) and the fits below have their
      // own spans. The lane-local application of the global membership rule to this
      // lane's sub-sequence.
      ScopedSpan span(SpanStage::kWindowAssemble);
      records = TakeDecisionRecords(decision, buffer_, last_window_);
    }
    const MeanFieldStats& window_stats = fold_.Stats();
    const std::size_t tasks = window_stats.NumTasks();
    QNET_DCHECK(!keep_records_ || records.size() == tasks, "lane fold holds ", tasks,
                " records, the selection ", records.size());
    LaneWindowFit fit = tasks == 0 ? LaneWindowFit{} : Fit(decision, window_stats, records);
    fit.tasks = tasks;
    if (tasks == 0) {
      ++stats_.empty_windows;
    }
    // Every normal close becomes the trailing-merge target (even an empty one — the
    // global merged-tail re-close targets the last GLOBAL window, and this lane's share
    // of it may well be empty).
    const bool retain = !merged_tail && options_.stream.window.merge_trailing_window;
    fold_.Restart(retain);
    ReleaseHeld(/*all=*/false, next_span_end);
    if (retain) {
      Recycle(last_window_);
      last_window_ = std::move(records);
    } else {
      Recycle(records);
    }
    // Processing the close IS event-time progress: an idle lane that answers every
    // decision is fully caught up to t1 even though it consumed no records (the lag stat
    // must not report it as trailing by the whole stream).
    AdvanceWatermark(decision.t1);
    PublishRouted();
    merger_->Post(lane_, std::move(fit));
  }

  // Adds the records accepted since the last call to the registry's records_routed: one
  // atomic add per close (and one when the lane stops) instead of one per record. Only
  // the thread that runs the lane may call it.
  void PublishRouted() {
    ShardCounters::Get().records_routed->Add(stats_.tasks_routed - routed_published_);
    routed_published_ = stats_.tasks_routed;
  }

  // Threaded arrangement: consumes `queue` until the finish token.
  void Drain(LaneQueue& queue) {
    try {
      // Batched pops mirror the router's batched pushes: one lock per ~64 items. The
      // lane swaps each record out of its batch element and leaves spare capacity there,
      // which the next pop swaps back into the ring for the router to reuse.
      std::vector<LaneItem> batch;
      for (;;) {
        const std::size_t count = queue.PopMany(batch, 64);
        for (std::size_t at = 0; at < count; ++at) {
          LaneItem& item = batch[at];
          if (item.kind == LaneItem::Kind::kFinish) {
            PublishRouted();
            return;  // nothing follows a finish token
          }
          if (item.kind == LaneItem::Kind::kRecord) {
            Take(item.record, item.span_end);
            std::swap(Keep(), item.record);
          } else {
            Close(item.close, item.span_end);
          }
        }
      }
      // Leftover buffered records are the globally dropped tail; the router accounts
      // them fleet-wide from the tracker.
    } catch (...) {
      // Unblock the router and wake the merger before surfacing the error through the
      // PipelineSlot (Run rethrows it from Wait()).
      PublishRouted();
      queue.CloseConsumer();
      merger_->Abort();
      throw;
    }
  }

 private:
  // A record held past the open span's end, with the index the lane took it at.
  struct HeldRecord {
    TaskRecord record;
    std::uint64_t arrival = 0;
  };

  // Counts and folds (or holds) one routed record. A lane that keeps records then fills
  // Keep()'s slot with it.
  void Take(const TaskRecord& record, double span_end) {
    const std::uint64_t arrival = stats_.tasks_routed++;  // published by PublishRouted
    // max: a late-merged record can sit behind the close-token advance in Close.
    AdvanceWatermark(record.entry_time);
    if (record.entry_time < span_end) {
      fold_.Add(record, arrival);
    } else {
      // Into a released slot's capacity when there is one.
      if (held_count_ == held_.size()) {
        held_.emplace_back();
      }
      held_[held_count_].record = record;
      held_[held_count_].arrival = arrival;
      ++held_count_;
      if (!keep_records_) {
        NotePeakBuffered(held_count_);
      }
    }
  }

  // Appends a record slot to the window buffer, from the spare pool when it has one
  // (unspecified content, reusable capacity), for the caller to overwrite.
  TaskRecord& Keep() {
    if (spare_.empty()) {
      buffer_.emplace_back();
    } else {
      buffer_.push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
    NotePeakBuffered(buffer_.size() + last_window_.size());
    return buffer_.back();
  }

  // Folds the held records with entry < `below` (or all) into the open window, in any
  // order: each carries its arrival index. Their slots keep their capacity for the next
  // holds.
  void ReleaseHeld(bool all, double below) {
    const auto held_end = held_.begin() + static_cast<std::ptrdiff_t>(held_count_);
    const auto stays_end = std::partition(held_.begin(), held_end, [&](const HeldRecord& h) {
      return !all && h.record.entry_time >= below;
    });
    for (auto it = stays_end; it != held_end; ++it) {
      fold_.Add(it->record, it->arrival);
    }
    held_count_ = static_cast<std::size_t>(stays_end - held_.begin());
  }

  void NotePeakBuffered(std::size_t buffered) {
    if (buffered > stats_.peak_buffered_tasks) {
      stats_.peak_buffered_tasks = buffered;
      StreamCounters::Get().peak_buffered_tasks->SetMax(static_cast<double>(buffered));
    }
  }

  // Moves records that left the lane into the spare pool, keeping their capacity.
  void Recycle(std::vector<TaskRecord>& records) {
    for (TaskRecord& record : records) {
      spare_.push_back(std::move(record));
    }
    records.clear();
  }

  void AdvanceWatermark(double t) {
    watermark_.store(std::max(watermark_.load(std::memory_order_relaxed), t),
                     std::memory_order_relaxed);
  }

  // Fits the window whose statistics the lane folded; `records` are its records in
  // TakeDecisionRecords order when the lane keeps them. The fast-path mode selection and
  // degrade decision of every streaming estimate live here. Only a window that StEM will
  // fit is built into the lane's log.
  LaneWindowFit Fit(const WindowSpanTracker::SpanDecision& decision,
                    const MeanFieldStats& window_stats,
                    const std::vector<TaskRecord>& records) {
    LaneWindowFit fit;
    // The sub-log's per-queue counts feed the merger's bias correction (lambda_q is
    // reconstructed from the summed counts — exact, fit or no fit).
    fit.queue_counts = window_stats.counts;
    // A hash-thinned sub-window (or any window of a stream that never visits some
    // queue) can miss a queue entirely; StEM cannot estimate a rate with no events.
    const bool every_queue_present =
        std::find(fit.queue_counts.begin(), fit.queue_counts.end(), std::size_t{0}) ==
        fit.queue_counts.end();
    const FastPathMode mode = options_.stream.fast_path;
    // Degradation triggers on the GLOBAL window task count (decision.count), a pure
    // function of the stream — the same windows degrade at any lane count, keeping the
    // fixed-K bit-equality and cross-K consistency contracts. Under the degrade policies
    // a missing-queue sub-log also degrades (mean-field fallback with chain rates for the
    // absent queues) instead of sitting the window out.
    const bool degrade_policy =
        mode == FastPathMode::kDegrade || mode == FastPathMode::kMeanFieldOnly;
    const bool mean_field_only =
        mode == FastPathMode::kMeanFieldOnly ||
        (mode == FastPathMode::kDegrade &&
         decision.count > options_.stream.degrade_task_budget) ||
        (degrade_policy && !every_queue_present);
    if (!every_queue_present && !degrade_policy) {
      fit.skipped = true;
      ++stats_.skipped_fits;
      return fit;
    }
    WindowFitChain::Plan plan = chain_.PlanFit(
        decision.window_index, decision.merged_tail_tasks > 0, decision.t0);
    if (mode != FastPathMode::kOff) {
      // Mean-field fit of the sub-window: the warm start (queues it could not fit keep
      // the chain's previous rates) and, when degraded, the estimate itself.
      mean_field_.Fit(window_stats, plan.arrival_time_origin, mf_fit_);
      for (std::size_t q = 0; q < plan.warm_start.size(); ++q) {
        if (mf_fit_.fitted[q] != 0) {
          plan.warm_start[q] = mf_fit_.rates[q];
        }
      }
    }
    fit.fitted = true;
    if (mean_field_only) {
      chain_.Complete(plan.warm_start);
      fit.degraded = true;
      ++stats_.degraded_fits;
      fit.rates = std::move(plan.warm_start);
      fit.mean_wait = mf_fit_.mean_wait;
      return fit;
    }
    {
      // Rebuilt in place over the lane's one log; it stays valid until the next build.
      ScopedSpan span(SpanStage::kWindowAssemble);
      builder_.Restart();
      for (const TaskRecord& record : records) {
        builder_.Add(record);
      }
      builder_.Build();
    }
    StemOptions stem = options_.stream.stem;
    stem.arrival_time_origin = plan.arrival_time_origin;
    const StemEstimator estimator(stem);
    Rng rng(plan.seed);
    Stopwatch fitting;
    StemResult result = estimator.Run(builder_.Log(), builder_.Obs(),
                                      std::move(plan.warm_start), rng, stem_workspace_);
    stats_.fit_seconds += fitting.ElapsedSeconds();
    stats_.fit_iterations_total += result.iterations_run;
    chain_.Complete(result.rates);
    fit.fit_iterations = result.iterations_run;
    fit.rates = std::move(result.rates);
    fit.mean_wait = std::move(result.mean_wait);
    return fit;
  }

  const std::size_t lane_;
  const ShardedStreamingOptions& options_;
  LaneMerger* merger_;
  const bool keep_records_;  // the lane's windows may reach StEM, which builds a log
  WindowLogBuilder builder_;
  MeanFieldRecordFold fold_;
  WindowFitChain chain_;
  // The lane's StEM working memory, reused by every window it fits: windows on a lane are
  // strictly sequential, so it is exclusively owned, and its sampler's sweep schedule
  // keeps its buffers across windows. Its buffers stay empty until the first StEM fit.
  StemWorkspace stem_workspace_;
  MeanFieldEstimator mean_field_;
  MeanFieldFit mf_fit_;
  // Records past the open span when routed: the first held_count_ slots; the rest are
  // released slots kept for their capacity.
  std::vector<HeldRecord> held_;
  std::size_t held_count_ = 0;
  // Lanes that keep records only: the open window's records (held ones too), the last
  // window's (the trailing-merge target) and recycled records for the next Keeps.
  std::vector<TaskRecord> buffer_;
  std::vector<TaskRecord> last_window_;
  std::vector<TaskRecord> spare_;
  std::atomic<double> watermark_{0.0};
  LaneStats stats_;
  std::size_t routed_published_ = 0;  // stats_.tasks_routed as of the last PublishRouted
};

}  // namespace

ShardedStreamingEstimator::ShardedStreamingEstimator(std::vector<double> init_rates,
                                                     std::uint64_t seed,
                                                     const ShardedStreamingOptions& options)
    : init_rates_(std::move(init_rates)), seed_(seed), options_(options) {
  QNET_CHECK(options_.lanes > 0, "fleet needs at least one lane");
}

std::vector<WindowEstimate> ShardedStreamingEstimator::Run(TraceStream& stream) {
  stats_ = FleetStats{};
  const std::size_t lanes = options_.lanes;
  // The work picks the arrangement. A single lane, and lanes that never reach StEM at any
  // K, run on the caller's thread: the router calls each lane's Accept/Close directly,
  // with no batches, queues or worker threads (a mean-field lane does ~50 ns of work per
  // record, less than a queue hand-off costs). StEM lanes at K > 1 each drain their own
  // bounded queue on their own thread, so their fits run in parallel.
  const bool keep_records = KeepsRecords(options_);
  const bool threaded = lanes > 1 && keep_records;
  Stopwatch total;

  WindowSpanTracker tracker(options_.stream.window);
  LaneRouterOptions router_options;
  router_options.lanes = lanes;
  router_options.lane_of = options_.lane_of;
  LaneRouter router(std::move(router_options));
  LaneMerger merger(lanes, stream.NumQueues(),
                    options_.stream.window_local_arrival_rate,
                    options_.cross_lane_bias_correction);

  std::vector<std::unique_ptr<LaneWorker>> workers;
  std::vector<std::unique_ptr<LaneQueue>> queues;
  workers.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    workers.push_back(std::make_unique<LaneWorker>(lane, stream.NumQueues(), options_,
                                                   init_rates_, seed_, &merger));
    if (threaded) {
      queues.push_back(std::make_unique<LaneQueue>(options_.lane_queue_capacity));
    }
  }
  // Declared after the workers and queues, so an unwinding Run joins every lane thread
  // before the state it uses is destroyed.
  std::vector<PipelineSlot> slots(queues.size());
  for (std::size_t lane = 0; lane < slots.size(); ++lane) {
    slots[lane].Submit([worker = workers[lane].get(), queue = queues[lane].get()] {
      worker->Drain(*queue);
    });
  }
  // Publishes the ingest-thread counts however Run exits, unwinding included: the
  // tracker's pushes and, in-thread, every lane's routed records (a threaded lane
  // publishes its own when it stops).
  struct PublishOnExit {
    WindowSpanTracker& tracker;
    const std::vector<std::unique_ptr<LaneWorker>>& workers;
    bool in_thread;
    ~PublishOnExit() {
      tracker.PublishCounts();
      if (in_thread) {
        for (const std::unique_ptr<LaneWorker>& worker : workers) {
          worker->PublishRouted();
        }
      }
    }
  } publish_on_exit{tracker, workers, !threaded};

  std::vector<double> max_watermark_lag(lanes, 0.0);
  std::vector<WindowEstimate> estimates;

  // Per-lane record batches of the threaded arrangement: one queue lock per
  // `router_batch` records. Copy-assigning the stream's record into a slot is the
  // fleet's one deep copy of it; PushMany swaps the record into the ring and hands the
  // slot back recycled capacity, so the steady-state routing path allocates nothing.
  const std::size_t batch_size = std::max<std::size_t>(options_.router_batch, 1);
  struct RouterBatch {
    std::vector<LaneItem> items;
    std::size_t count = 0;
  };
  std::vector<RouterBatch> batches(queues.size());
  for (RouterBatch& batch : batches) {
    batch.items.resize(batch_size);
  }
  const auto flush_lane = [&](std::size_t lane) {
    RouterBatch& batch = batches[lane];
    if (batch.count > 0) {
      stats_.router_blocked_seconds +=
          queues[lane]->PushMany(batch.items.data(), batch.count);
      batch.count = 0;
    }
  };
  const auto flush_all = [&] {
    for (std::size_t lane = 0; lane < batches.size(); ++lane) {
      flush_lane(lane);
    }
  };

  // Hands the record to its lane with the end of the span that was open when it was
  // routed. In-thread, the lane takes the stream's record by reference.
  const auto route = [&](const TaskRecord& record, double span_end) {
    const std::size_t lane = router.Route(record);
    if (!threaded) {
      workers[lane]->Accept(record, span_end);
      return;
    }
    RouterBatch& batch = batches[lane];
    LaneItem& slot = batch.items[batch.count++];
    slot.kind = LaneItem::Kind::kRecord;
    slot.record = record;
    slot.span_end = span_end;
    if (batch.count == batch_size) {
      flush_lane(lane);
    }
  };

  const auto emit = [&](PooledWindow&& pooled) {
    ScopedSpan span(SpanStage::kEmit);
    const StreamCounters& counters = StreamCounters::Get();
    if (pooled.estimate.degraded) {
      ++stats_.degraded_windows;
      counters.degraded_windows->Increment();
    }
    stats_.fit_iterations_total += pooled.estimate.fit_iterations;
    counters.fit_iterations->Add(
        static_cast<std::uint64_t>(pooled.estimate.fit_iterations));
    if (pooled.replaces_previous) {
      QNET_CHECK(!estimates.empty(), "merged-tail window with no previous estimate");
      estimates.back() = std::move(pooled.estimate);
    } else {
      estimates.push_back(std::move(pooled.estimate));
      ++stats_.windows_estimated;
      counters.windows_estimated->Increment();
    }
    if (options_.stream.on_window) {
      options_.stream.on_window(estimates.back());
    }
  };

  // Hands every closed span decision to every lane: in band through the queues (every
  // routed record ahead of the token reaches its lane first), or by a direct call.
  const auto broadcast_decisions = [&] {
    while (tracker.HasClosed()) {
      flush_all();
      const WindowSpanTracker::SpanDecision decision = tracker.PopClosed();
      // The span open after the push's last decision is the tracker's open span.
      const double next_span_end = tracker.HasClosed()
                                       ? -std::numeric_limits<double>::infinity()
                                       : tracker.OpenSpanEnd();
      merger.ExpectWindow(decision);
      if (threaded) {
        LaneItem token;
        token.kind = LaneItem::Kind::kClose;
        token.close = decision;
        token.span_end = next_span_end;
        for (const std::unique_ptr<LaneQueue>& queue : queues) {
          stats_.router_blocked_seconds += queue->Push(token);
        }
      } else {
        for (const std::unique_ptr<LaneWorker>& worker : workers) {
          worker->Close(decision, next_span_end);
        }
      }
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        max_watermark_lag[lane] =
            std::max(max_watermark_lag[lane],
                     tracker.Watermark() - workers[lane]->ConsumedWatermark());
      }
    }
  };

  const auto broadcast_finish = [&] {
    flush_all();
    LaneItem token;
    token.kind = LaneItem::Kind::kFinish;
    for (const std::unique_ptr<LaneQueue>& queue : queues) {
      queue->Push(token);
    }
  };

  TaskRecord record;
  // Constructed once: Pop assigns every field of it.
  PooledWindow pooled;
  try {
    while (stream.Next(record)) {
      const double open_span_end = tracker.OpenSpanEnd();
      // The tracker counts ingestion and late drops (and mirrors them to the registry);
      // the fleet stats read them back from the tracker after the run.
      const WindowSpanTracker::PushVerdict verdict = tracker.Push(record.entry_time);
      if (verdict == WindowSpanTracker::PushVerdict::kLateDropped) {
        continue;
      }
      // The decisions this push made close spans that end at or before the record's
      // entry time, so they do not take it. Lanes that keep records take it first, with
      // the span end read before the push: their buffered peak counts the record that
      // closes a window, and their fold holds that record until the next span opens.
      // Sampler-free lanes take it after the decisions (and, in-thread, after the emits
      // they complete), with the span end after the push, so they hold it only when it
      // lies past the open span (allowed_lateness > 0).
      if (keep_records) {
        route(record, open_span_end);
      }
      broadcast_decisions();
      while (merger.Pop(pooled, /*block=*/false)) {
        emit(std::move(pooled));
      }
      if (merger.Aborted()) {
        break;
      }
      if (!keep_records) {
        route(record, tracker.OpenSpanEnd());
      }
    }
    if (!merger.Aborted()) {
      tracker.Finish();
      broadcast_decisions();
      stats_.tail_dropped = tracker.TailDropped();
    }
  } catch (...) {
    // Stream or bookkeeping failure on the router thread: release the lanes so the
    // slots' destructors can join, then surface the original error.
    broadcast_finish();
    throw;
  }

  broadcast_finish();
  while (merger.Pop(pooled, /*block=*/true)) {
    emit(std::move(pooled));
  }
  for (PipelineSlot& slot : slots) {
    slot.Wait();  // rethrows the first lane failure
  }

  stats_.lanes = lanes;
  stats_.tasks_ingested = tracker.TasksPushed();
  stats_.late_dropped = tracker.LateDropped();
  stats_.total_wall_seconds = total.ElapsedSeconds();
  stats_.tasks_per_second =
      stats_.total_wall_seconds > 0.0
          ? static_cast<double>(stats_.tasks_ingested) / stats_.total_wall_seconds
          : 0.0;
  stats_.max_merge_lag_seconds = merger.MaxMergeLagSeconds();
  stats_.lane.resize(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    stats_.lane[lane] = workers[lane]->Stats();
    if (threaded) {
      stats_.lane[lane].peak_queue_depth = queues[lane]->PeakDepth();
      StreamCounters::Get().peak_queue_depth->SetMax(
          static_cast<double>(stats_.lane[lane].peak_queue_depth));
    }
    stats_.lane[lane].max_watermark_lag = std::max(0.0, max_watermark_lag[lane]);
    stats_.lane[lane].tasks_per_second =
        stats_.total_wall_seconds > 0.0
            ? static_cast<double>(stats_.lane[lane].tasks_routed) /
                  stats_.total_wall_seconds
            : 0.0;
  }
  return estimates;
}

}  // namespace qnet
