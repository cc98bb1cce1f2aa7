#include "qnet/shard/sharded_streaming.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <utility>

#include "qnet/infer/stem.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/shard/lane_merger.h"
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

// One StEM fit of a closed lane window, as a job for the fit pool: the window's log, built
// on the caller's thread into this fit's recycled builder, the fit's inputs, and the
// result the worker writes. A fit is recycled once collected (and once no later fit
// reads its rates), so the fleet holds at most one per fit in flight plus a few, and a
// warm builder rebuilds in place.
struct StemFit {
  explicit StemFit(int num_queues) : builder(num_queues) {}

  // Runs on a pool worker, with that worker's workspace.
  void Run(StemWorkspace& workspace) {
    const Stopwatch fitting;
    if (source != nullptr) {
      // The lane's previous fit, which finished before this job started: its rates are
      // the chain's rates this fit's plan reads.
      for (std::size_t q = 0; q < warm_start.size(); ++q) {
        if (from_source[q] != 0) {
          warm_start[q] = source->rates[q];
        }
      }
    }
    Rng rng(seed);
    result = StemEstimator(options).Run(builder.Log(), builder.Obs(), std::move(warm_start),
                                        rng, workspace);
    rates.assign(result.rates.begin(), result.rates.end());
    seconds = fitting.ElapsedSeconds();
  }

  WindowLogBuilder builder;
  StemOptions options;
  std::vector<double> warm_start;
  std::uint64_t seed = 0;
  // Set when the plan read the chain while the lane had a fit in flight: that fit, and
  // the warm-start queues that take its rates (the rest are the window's own mean-field
  // rates). The job then starts after it on the pool.
  StemFit* source = nullptr;
  std::vector<unsigned char> from_source;
  StemResult result;
  std::vector<double> rates;  // result.rates, for a fit whose source this is
  double seconds = 0.0;
  // Caller's thread only.
  std::size_t ticket = 0;    // the pool's ticket of this fit's job
  bool is_source = false;    // a later fit reads `rates`: recycled after that fit
};

class LaneWorker;

// The lanes' answers on their way to the merger. Each lane answers each window in lane
// order on the caller's thread; an answer that is a StEM fit is a job on the fit pool
// until it is collected. Answers reach the merger in (window, lane) order — an answer
// behind an uncollected fit waits here — so the merger sees exactly the sequence a
// sequential fleet posts, at any pool width. The fits and their bookkeeping (the lane's
// fit chain and stats) complete in that order, on the caller's thread.
class FitOrder {
 public:
  FitOrder(std::size_t workers, int num_queues, LaneMerger& merger,
           std::vector<std::unique_ptr<LaneWorker>>& lanes, FleetStats& stats)
      : num_queues_(num_queues), merger_(merger), lanes_(lanes), stats_(stats),
        pool_(workers) {}

  // A fit to build a window into: a recycled one when there is one.
  std::unique_ptr<StemFit> TakeFit() {
    if (spare_.empty()) {
      return std::make_unique<StemFit>(num_queues_);
    }
    std::unique_ptr<StemFit> fit = std::move(spare_.back());
    spare_.pop_back();
    fit->source = nullptr;
    fit->is_source = false;
    return fit;
  }

  // Lane `lane`'s finished answer to its next window.
  void Post(std::size_t lane, LaneWindowFit fit) {
    answers_.push_back({lane, std::move(fit), nullptr});
    CollectFinished();
  }

  // Lane `lane`'s answer to its next window, once `stem` is fitted; a fit with a source
  // starts after its source's job. Keeps at most 2W fits in flight: the caller waits on
  // the oldest first. With one worker the fit runs here, inline, and is collected at once.
  // Returns the fit, which stays valid while it is in flight.
  StemFit* Submit(std::size_t lane, LaneWindowFit fit, std::unique_ptr<StemFit> stem);

  // Collects the answers at the head whose fits have finished, without waiting.
  void CollectFinished() {
    while (!answers_.empty() && (answers_.front().stem == nullptr || pool_.OldestFinished())) {
      CollectOldest();
    }
  }

  // Waits for and collects every answer.
  void CollectAll() {
    while (!answers_.empty()) {
      CollectOldest();
    }
  }

 private:
  struct Answer {
    std::size_t lane;
    LaneWindowFit fit;
    std::unique_ptr<StemFit> stem;  // in flight on the pool when set
  };

  void CollectOldest();

  const int num_queues_;
  LaneMerger& merger_;
  std::vector<std::unique_ptr<LaneWorker>>& lanes_;
  FleetStats& stats_;
  std::deque<Answer> answers_;  // (window, lane) order
  std::vector<std::unique_ptr<StemFit>> spare_;
  // Collected fits whose rates a fit in flight still reads.
  std::vector<std::unique_ptr<StemFit>> sources_;
  // Declared last: destroyed first, so an unwinding run joins every worker before the
  // fits its jobs write into are destroyed.
  OrderedPool<StemWorkspace> pool_;
};

// One lane: a per-window record fold (plus a record buffer, for lanes that may fit
// StEM) and a warm-started fit chain. Accept takes one routed record and Close answers
// one span decision; the router calls both on the Run() caller's thread. Everything the
// lane does is a pure function of its call sequence, which the router makes a pure
// function of the stream.
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
// a window, which then opens the next one. A kept record is one copy of the stream's
// record into recycled capacity: records that leave the lane at a close (a window that
// is not kept for a merged tail, or the retained window it replaces) go back into a
// spare pool, so record capacity circulates and the steady-state record path allocates
// nothing per task. The pool holds at most the lane's peak of live records: it grows
// only when the lane finds it empty, i.e. when every record the lane owns is live.
//
// A window StEM fits is built into a StemFit and handed to the fit pool (FitOrder);
// everything else about the window — selection, the mean-field fit, the warm-start plan
// and the degrade decision — happens here, at the close.
class LaneWorker {
 public:
  LaneWorker(std::size_t lane, int num_queues, const ShardedStreamingOptions& options,
             std::vector<double> init_rates, std::uint64_t seed, FitOrder* fits)
      : lane_(lane),
        options_(options),
        fits_(fits),
        keep_records_(KeepsRecords(options)),
        fold_(num_queues),
        chain_size_(init_rates.size()),
        chain_(std::move(init_rates), seed, options.stream.window_local_arrival_rate,
               /*salted=*/options.lanes > 1, /*lane=*/lane),
        mean_field_(options.stream.mean_field) {}

  // Event-time progress of the lane, sampled by the router for lag stats.
  double ConsumedWatermark() const { return watermark_; }
  LaneStats& Stats() { return stats_; }

  // `record` is the stream's own, copied only into a lane that keeps records.
  // `span_end` is the open span's end when the router routed it.
  void Accept(const TaskRecord& record, double span_end) {
    Take(record, span_end);
    if (keep_records_) {
      Keep() = record;
    }
  }

  // Answers one span decision: completes the lane's share of the window, fits it (or
  // hands its StEM fit to the pool), and posts the answer. `next_span_end` is the end
  // of the span open after the decision when the router knows it (-infinity when another
  // decision follows): held records below it belong to that span and join it at once,
  // ahead of its other records.
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
    // Processing the close IS event-time progress: an idle lane that answers every
    // decision is fully caught up to t1 even though it consumed no records (the lag stat
    // must not report it as trailing by the whole stream).
    AdvanceWatermark(decision.t1);
    PublishRouted();
    if (tasks == 0) {
      ++stats_.empty_windows;
      fits_->Post(lane_, LaneWindowFit{});
    } else {
      Fit(decision, window_stats, records);
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
  }

  // Takes a StEM fit back from the pool into the fit chain, the stats and the answer.
  void CompleteStemFit(StemFit& stem, LaneWindowFit& fit) {
    --fits_in_flight_;
    stats_.fit_seconds += stem.seconds;
    stats_.fit_iterations_total += stem.result.iterations_run;
    chain_.Complete(stem.result.rates);
    fit.fit_iterations = stem.result.iterations_run;
    fit.rates = std::move(stem.result.rates);
    fit.mean_wait = std::move(stem.result.mean_wait);
  }

  // Adds the records accepted since the last call to the registry's records_routed: one
  // atomic add per close (and one when the run stops) instead of one per record.
  void PublishRouted() {
    ShardCounters::Get().records_routed->Add(stats_.tasks_routed - routed_published_);
    routed_published_ = stats_.tasks_routed;
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
    // max: a late-merged record can sit behind the close's advance in Close.
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

  void AdvanceWatermark(double t) { watermark_ = std::max(watermark_, t); }

  // Fits the window whose statistics the lane folded; `records` are its records in
  // TakeDecisionRecords order when the lane keeps them. The fast-path mode selection and
  // degrade decision of every streaming estimate live here. Only a window that StEM will
  // fit is built into a log, and its fit goes to the pool.
  void Fit(const WindowSpanTracker::SpanDecision& decision,
           const MeanFieldStats& window_stats, const std::vector<TaskRecord>& records) {
    LaneWindowFit fit;
    fit.tasks = window_stats.NumTasks();
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
      fits_->Post(lane_, std::move(fit));
      return;
    }
    const double origin = chain_.WindowLocalArrivalRate() ? decision.t0 : 0.0;
    if (mode != FastPathMode::kOff) {
      // Mean-field fit of the sub-window: the warm start (queues it could not fit keep
      // the chain's previous rates) and, when degraded, the estimate itself.
      mean_field_.Fit(window_stats, origin, mf_fit_);
    }
    // The dependency edge (see the header). Degraded windows and merged tails come in
    // every lane at once (the global window count, the stream's end), so they collect
    // every fit in flight.
    const bool merged_tail = decision.merged_tail_tasks > 0;
    if (merged_tail || mean_field_only) {
      fits_->CollectAll();
    }
    WindowFitChain::Plan plan = chain_.PlanFit(decision.window_index, merged_tail, decision.t0);
    if (mode != FastPathMode::kOff) {
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
      fits_->Post(lane_, std::move(fit));
      return;
    }
    std::unique_ptr<StemFit> stem = fits_->TakeFit();
    if (fits_in_flight_ > 0 && (mode == FastPathMode::kOff || !MeanFieldCoversChain())) {
      // The plan's chain rates predate the lane's fits in flight: the fit takes them
      // from the latest of those once it has finished.
      stem->source = latest_fit_;
      stem->from_source.resize(plan.warm_start.size());
      for (std::size_t q = 0; q < plan.warm_start.size(); ++q) {
        stem->from_source[q] = mode == FastPathMode::kOff || mf_fit_.fitted[q] == 0;
      }
    }
    {
      // Rebuilt in place over the fit's recycled log.
      ScopedSpan span(SpanStage::kWindowAssemble);
      stem->builder.Restart();
      for (const TaskRecord& record : records) {
        stem->builder.Add(record);
      }
      stem->builder.Build();
    }
    stem->options = options_.stream.stem;
    stem->options.arrival_time_origin = plan.arrival_time_origin;
    stem->warm_start = std::move(plan.warm_start);
    stem->seed = plan.seed;
    ++fits_in_flight_;
    latest_fit_ = fits_->Submit(lane_, std::move(fit), std::move(stem));
  }

  // Whether the window's mean-field fit replaces every rate of a warm start, so the plan
  // reads nothing from the chain.
  bool MeanFieldCoversChain() const {
    for (std::size_t q = 0; q < chain_size_; ++q) {
      if (q >= mf_fit_.fitted.size() || mf_fit_.fitted[q] == 0) {
        return false;
      }
    }
    return true;
  }

  const std::size_t lane_;
  const ShardedStreamingOptions& options_;
  FitOrder* fits_;
  const bool keep_records_;  // the lane's windows may reach StEM, which builds a log
  MeanFieldRecordFold fold_;
  const std::size_t chain_size_;  // rates in the chain's warm starts
  WindowFitChain chain_;
  MeanFieldEstimator mean_field_;
  MeanFieldFit mf_fit_;
  std::size_t fits_in_flight_ = 0;  // submitted to the pool, not yet completed
  StemFit* latest_fit_ = nullptr;   // the last submitted, in flight while any is
  // Records past the open span when routed: the first held_count_ slots; the rest are
  // released slots kept for their capacity.
  std::vector<HeldRecord> held_;
  std::size_t held_count_ = 0;
  // Lanes that keep records only: the open window's records (held ones too), the last
  // window's (the trailing-merge target) and recycled records for the next Keeps.
  std::vector<TaskRecord> buffer_;
  std::vector<TaskRecord> last_window_;
  std::vector<TaskRecord> spare_;
  double watermark_ = 0.0;
  LaneStats stats_;
  std::size_t routed_published_ = 0;  // stats_.tasks_routed as of the last PublishRouted
};

StemFit* FitOrder::Submit(std::size_t lane, LaneWindowFit fit,
                          std::unique_ptr<StemFit> stem) {
  StemFit* job = stem.get();
  if (job->source != nullptr) {
    job->source->is_source = true;  // before the wait below may collect it
  }
  if (pool_.InFlight() >= 2 * pool_.Workers()) {
    // The in-flight bound: the caller outran the pool, so it waits on the oldest fit.
    ScopedSpan span(SpanStage::kLaneBlocked);
    const Stopwatch waited;
    while (pool_.InFlight() >= 2 * pool_.Workers()) {
      CollectOldest();
    }
    stats_.router_blocked_seconds += waited.ElapsedSeconds();
  }
  const std::size_t after =
      job->source != nullptr ? job->source->ticket : OrderedPool<StemWorkspace>::kNoJob;
  answers_.push_back({lane, std::move(fit), std::move(stem)});
  job->ticket = pool_.Submit([job](StemWorkspace& workspace) { job->Run(workspace); }, after);
  CollectFinished();
  return job;
}

void FitOrder::CollectOldest() {
  Answer& answer = answers_.front();
  if (answer.stem != nullptr) {
    pool_.WaitOldest();  // rethrows the fit's error
    StemFit& stem = *answer.stem;
    lanes_[answer.lane]->CompleteStemFit(stem, answer.fit);
    if (stem.source != nullptr) {
      // Its source was collected before it and is read by nothing else now.
      const auto it = std::find_if(
          sources_.begin(), sources_.end(),
          [&](const std::unique_ptr<StemFit>& fit) { return fit.get() == stem.source; });
      spare_.push_back(std::move(*it));
      sources_.erase(it);
    }
    (stem.is_source ? sources_ : spare_).push_back(std::move(answer.stem));
  }
  merger_.Post(answer.lane, std::move(answer.fit));
  answers_.pop_front();
}

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
  const bool keep_records = KeepsRecords(options_);
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
  // The pool is as wide as the CPUs this thread may run on, capped under kOff, where
  // every fit starts after its lane's previous one: at most one fit per lane runs at
  // once, beside the caller, and a single kOff lane, whose fits could only overlap
  // ingestion, fits inline. A sampler-free fleet submits nothing, and a pool starts no
  // thread before its first submission.
  std::size_t width = AffinityWidth();
  if (options_.stream.fast_path == FastPathMode::kOff) {
    width = lanes == 1 ? 1 : std::min(width, lanes + 1);
  }
  FitOrder fits(width, stream.NumQueues(), merger, workers, stats_);
  workers.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    workers.push_back(std::make_unique<LaneWorker>(lane, stream.NumQueues(), options_,
                                                   init_rates_, seed_, &fits));
  }
  // Publishes the per-record counts however Run exits, unwinding included: the
  // tracker's pushes and every lane's routed records.
  struct PublishOnExit {
    WindowSpanTracker& tracker;
    const std::vector<std::unique_ptr<LaneWorker>>& workers;
    ~PublishOnExit() {
      tracker.PublishCounts();
      for (const std::unique_ptr<LaneWorker>& worker : workers) {
        worker->PublishRouted();
      }
    }
  } publish_on_exit{tracker, workers};

  std::vector<double> max_watermark_lag(lanes, 0.0);
  std::vector<WindowEstimate> estimates;

  // Hands the record to its lane with the end of the span that was open when it was
  // routed; the lane takes the stream's record by reference.
  const auto route = [&](const TaskRecord& record, double span_end) {
    workers[router.Route(record)]->Accept(record, span_end);
  };

  // Constructed once: Pop assigns every field of it.
  PooledWindow pooled;
  const auto emit_ready = [&] {
    while (merger.Pop(pooled)) {
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
    }
  };

  // Closes every lane on every closed span decision, in lane order.
  const auto close_decisions = [&] {
    while (tracker.HasClosed()) {
      const WindowSpanTracker::SpanDecision decision = tracker.PopClosed();
      // The span open after the push's last decision is the tracker's open span.
      const double next_span_end = tracker.HasClosed()
                                       ? -std::numeric_limits<double>::infinity()
                                       : tracker.OpenSpanEnd();
      merger.ExpectWindow(decision);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        workers[lane]->Close(decision, next_span_end);
        max_watermark_lag[lane] =
            std::max(max_watermark_lag[lane],
                     tracker.Watermark() - workers[lane]->ConsumedWatermark());
      }
    }
  };

  TaskRecord record;
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
    // Sampler-free lanes take it after the decisions and the emits they complete, with
    // the span end after the push, so they hold it only when it lies past the open span
    // (allowed_lateness > 0).
    if (keep_records) {
      route(record, open_span_end);
    }
    close_decisions();
    // Fits that finished on the pool since the last record.
    fits.CollectFinished();
    emit_ready();
    if (!keep_records) {
      route(record, tracker.OpenSpanEnd());
    }
  }
  tracker.Finish();
  close_decisions();
  stats_.tail_dropped = tracker.TailDropped();
  fits.CollectAll();
  emit_ready();

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
