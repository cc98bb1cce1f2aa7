// Watermark-driven window assembly for streaming inference: the pieces every streaming
// lane (shard/sharded_streaming.h) assembles its windows from.
//
//   * WindowSpanTracker decides the windows from the entry times alone: spans, counts,
//     late drops, small-window merging and the trailing merge.
//   * MeanFieldRecordFold folds each record into its window's mean-field statistics.
//   * TakeDecisionRecords selects and sorts a window's records for a lane that keeps
//     them, and WindowLogBuilder builds them into the EventLog + Observation StEM fits.
//
// Windows partition the stream into consecutive event-time spans of `window_duration`
// by entry time — the same per-window approximation as the batch online estimator
// (cross-window queueing interactions are cut at the boundary). Memory is bounded by the
// widest window ever open, never by the trace length: records are kept only until their
// window closes.
//
// Watermark semantics: the watermark is max(entry time seen) - allowed_lateness. A window
// [t0, t1) closes when the watermark reaches t1. With allowed_lateness == 0 and an
// entry-ordered stream this reproduces the batch windower exactly (a window closes the
// moment a record at or past its end arrives). allowed_lateness > 0 delays closing so
// that records up to that much behind the newest entry still land in their window.
//
// Late-record policy (documented contract): a record is *late* when its entry time falls
// before the currently open span's start — its window has already closed.
// LateRecordPolicy::kDrop counts and discards it (late_dropped);
// LateRecordPolicy::kMergeIntoCurrent folds it into the currently open window, trading a
// small boundary error for not losing the task. Records that are merely out of order
// within the open span are always handled exactly (windows are sorted on close).
//
// Small-window merging matches the batch estimator: a window with fewer than
// max(min_tasks_per_window, 2) records is not closed; its span extends by whole
// window_durations until enough records accumulate. At end of stream a trailing
// remainder with too few records is NOT dropped: it is merged into the previous window's
// span and re-emitted as one final window (merged_tail_tasks > 0 marks the replacement),
// or emitted alone when at least 2 records exist and no previous window does. Only a
// 0/1-record remainder with no previous window is dropped (tail_dropped).

#ifndef QNET_STREAM_WINDOW_ASSEMBLER_H_
#define QNET_STREAM_WINDOW_ASSEMBLER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "qnet/infer/meanfield.h"
#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/stream/task_record.h"

namespace qnet {

// Builds one window's EventLog + Observation incrementally from TaskRecords added in
// nondecreasing entry-time order. Each record becomes its initial event followed by its
// visits, and is checked by ValidateTaskRecord first. The observation flags are
// re-derived from the records exactly as ExtractTaskWindow derives them from a batch
// log: initial events are always arrival-observed, internal departure flags are synced
// to the successor's arrival flag, and observed_tasks collects the tasks whose every
// visit arrival is observed.
//
// The builder owns one log and one observation and rebuilds them in place: Restart,
// Add each record, Build, then read Log()/Obs(). Restart keeps every buffer's capacity
// (EventLog::Reset), so once warm a window no larger than an earlier one is built
// without a heap allocation. Finish() is the one-shot form of the same sequence for
// callers that need to own the window (build, move the pair out, restart).
class WindowLogBuilder {
 public:
  explicit WindowLogBuilder(int num_queues);

  // Starts the next window over the retained buffers. Invalidates Log()/Obs().
  void Restart();

  void Add(const TaskRecord& record);

  int NumTasks() const { return log_.NumTasks(); }

  // Finalizes queue links and validates the observation in place. Log() and Obs() hold
  // the built window until the next Restart or Finish.
  void Build();
  const EventLog& Log() const { return log_; }
  const Observation& Obs() const { return obs_; }

  // Build, then move the window out and Restart: the caller owns the returned pair.
  std::pair<EventLog, Observation> Finish();

 private:
  int num_queues_;
  EventLog log_;
  Observation obs_;
};

// Folds TaskRecords straight into the mean-field statistics, without building a log: the
// sampler-free windows' replacement for WindowLogBuilder, and every fleet lane's record
// intake (a lane folds each record when it takes it, shard/sharded_streaming.cc). Add
// visits a record's events in the order WindowLogBuilder::Add numbers them, with the
// same observation flags and the same checks except the entry order, run inside the same
// pass: records may arrive in any order.
//
// Every statistic but the per-queue response sums is a count, a min, a max or an or, so
// it does not depend on the order. The fold keeps each measured response as a term
// (entry time, arrival index, visit, departure - arrival), and Stats() sums each queue's
// terms in (entry time, arrival index) order: the order TakeDecisionRecords sorts a
// window into, whose stable sort breaks entry-time ties by arrival. While the terms
// arrive in that order the sums are kept as they go; only a window whose terms arrived
// out of order is sorted (once, without allocating) and re-summed. So after the same
// records, in any order,
//   Stats().counts == builder.Log().PerQueueCount(), and
//   MeanFieldEstimator::Fit(Stats(), ...) == Fit(builder.Log(), builder.Obs(), ...)
// bit for bit, where the builder was fed the records in that sorted order.
//
// A merged trailing window is the retained window's statistics and terms followed by the
// tail's (Restart(true), then MergePrevious at the re-close). A tail record that ties a
// retained one on entry time reached the window after the retained window closed, so
// with arrival indices that grow as records arrive the merged terms sort exactly as
// TakeDecisionRecords orders the merged records (the retained window's first).
//
// A record that fails a check throws part-way through its fold, so the window's
// statistics are unspecified until the next Restart. Restart keeps the statistics' and
// the terms' capacity: a warm fold allocates nothing.
class MeanFieldRecordFold {
 public:
  explicit MeanFieldRecordFold(int num_queues);

  // Starts the next window. With `retain`, the window folded so far becomes the merge
  // target of MergePrevious, replacing any earlier one; otherwise it is dropped.
  void Restart(bool retain = false);

  // Folds one record into the open window. `arrival` must differ between the records a
  // fold sees; of two records with equal entry times the smaller index is summed first.
  // Add(record) takes the index after the largest one seen so far.
  void Add(const TaskRecord& record, std::uint64_t arrival);
  void Add(const TaskRecord& record) { Add(record, next_arrival_); }

  // Puts the retained window in front of the open one and consumes it: the open window
  // becomes the merged trailing window. With no retained window it changes nothing.
  void MergePrevious();

  // The open window's statistics, its response sums in (entry time, arrival) order.
  const MeanFieldStats& Stats();

 private:
  struct Term {
    double entry_time;
    std::uint64_t arrival;
    std::uint32_t visit;  // orders a record's own terms
    std::int32_t queue;
    double response;      // departure - arrival
  };
  struct Window {
    MeanFieldStats stats;
    std::vector<Term> terms;
    // Terms are in key order, and stats.resp_sum is their running sum.
    bool sorted = true;
  };

  static bool TermBefore(const Term& a, const Term& b);
  void Clear(Window& window) const;
  static void Resum(Window& window);

  int num_queues_;
  Window open_;
  Window retained_;
  std::uint64_t next_arrival_ = 0;
};

// Extracts the sub-log of `truth` containing exactly `tasks` (sorted, unique; renumbered
// contiguously) together with the restriction of `obs`, through a WindowLogBuilder fed
// FillTaskRecord's records — the batch-log window the streaming windows are tested
// against.
std::pair<EventLog, Observation> ExtractTaskWindow(const EventLog& truth,
                                                   const Observation& obs,
                                                   const std::vector<int>& tasks);

enum class LateRecordPolicy {
  kDrop,
  kMergeIntoCurrent,
};

// The window rules above, as WindowSpanTracker applies them
// (StreamingEstimatorOptions::window).
struct WindowAssemblerOptions {
  double window_duration = 60.0;
  // Windows with fewer records than max(this, 2) are merged into the next window.
  std::size_t min_tasks_per_window = 8;
  // How far behind the newest entry time the watermark trails (event-time seconds).
  double allowed_lateness = 0.0;
  LateRecordPolicy late_policy = LateRecordPolicy::kDrop;
  // Retain the last closed window so the end of the stream can merge a too-small
  // trailing remainder into it. Costs one extra window of memory in a lane that keeps
  // records.
  bool merge_trailing_window = true;
};

// The window decision core: consumes entry times only and produces the close/extend/
// late/merge decisions — window spans, per-span record counts, emission indices, and the
// trailing-merge/tail-drop outcome — without buffering records or building logs. The
// streaming fleet (shard/) runs one instance on the ingest thread over the GLOBAL
// entry-time sequence, so a K-lane fleet's window boundaries are structurally
// bit-identical for ANY lane count: span decisions are a pure function of that sequence
// and the options, never of the partition.
class WindowSpanTracker {
 public:
  // What Push decided about one record.
  enum class PushVerdict {
    kBuffered,      // belongs to the open span (or a later one)
    kLateDropped,   // late under LateRecordPolicy::kDrop: discard, do not route
    kLateMerged,    // late under kMergeIntoCurrent: folds into the open span
  };

  // One closed window, by membership rule rather than materialized records: the window
  // holds every record pushed so far (and not consumed by an earlier decision) with
  // entry_time < t1. For a merged-tail decision the previous decision's records are
  // prepended (the re-close replaces that window).
  struct SpanDecision {
    double t0 = 0.0;
    double t1 = 0.0;
    std::size_t count = 0;             // records in the span, globally
    std::size_t merged_tail_tasks = 0; // > 0: re-close of the previous window (replaces it)
    // Emission index of the window (seeds MixSeed(base, window_index) downstream); a
    // merged-tail re-close reuses the replaced window's index.
    std::size_t window_index = 0;
    // End-of-stream decisions consume EVERY remaining record, including one whose entry
    // time equals t1 == watermark (the `entry < t1` membership rule would exclude it).
    bool take_all = false;
  };

  explicit WindowSpanTracker(const WindowAssemblerOptions& options);

  // Ingests one entry time; may queue zero or more decisions (drain with PopClosed).
  // A non-finite entry time throws qnet::Error before any state changes.
  PushVerdict Push(double entry_time);
  // End of stream: releases the lateness hold-back and resolves the trailing remainder
  // (close, merged-tail re-close, or tail drop). Push must not be called afterwards.
  void Finish();

  bool HasClosed() const { return !closed_.empty(); }
  SpanDecision PopClosed();

  // Raw max-entry-time watermark (no lateness subtracted).
  double Watermark() const { return watermark_; }
  // End of the open span. Every decision queued after this is read has t1 at least
  // this, so a record pushed after the read with an entry time below it belongs to the
  // first such decision. Read after a Push, it is above the pushed entry time unless
  // allowed_lateness > 0.
  double OpenSpanEnd() const { return window_end_; }
  std::size_t PendingCount() const { return pending_.size(); }

  // Decision counters. The tracker is the ONE increment site for the ingest-side
  // counts that StreamingStats and FleetStats share, and each also reaches the matching
  // StreamCounters metric in the global registry, so the stats structs and the exported
  // metrics cannot drift. Drops and closes bump their metric as they happen. Pushes, one per record, are counted locally and published
  // as one delta (PublishCounts) at each window decision and at Finish, so the record
  // path pays no atomic; between those points the registry's tasks_ingested trails
  // TasksPushed() by the open window's pushes. Accessors are plain local reads: a
  // tracker reports its OWN stream even when several trackers run in one process.
  std::size_t TasksPushed() const { return tasks_pushed_; }
  std::size_t LateDropped() const { return late_dropped_; }
  std::size_t WindowsClosed() const { return windows_closed_; }
  // Records dropped at Finish (0/1-record remainder with nothing to merge into).
  std::size_t TailDropped() const { return tail_dropped_; }

  // Adds the pushes not yet published to the registry's tasks_ingested. Decisions and
  // Finish call it; an owner that stops before Finish (an unwinding run) calls it so the
  // registry counts every record pulled.
  void PublishCounts();

 private:
  void TryCloseWindows();
  void QueueDecision(double t0, double t1, std::size_t count, std::size_t merged_tail,
                     bool take_all);

  WindowAssemblerOptions options_;
  double window_start_ = 0.0;
  double window_end_ = 0.0;
  double watermark_ = 0.0;  // max entry time seen
  bool finished_ = false;

  std::vector<double> pending_;  // entry times of not-yet-closed records, push order
  std::deque<SpanDecision> closed_;

  std::size_t next_window_index_ = 0;
  // Last normally closed window, retained as the trailing-merge target.
  bool have_last_window_ = false;
  double last_window_t0_ = 0.0;
  std::size_t last_window_count_ = 0;

  std::size_t tasks_pushed_ = 0;
  std::size_t tasks_published_ = 0;  // tasks_pushed_ as of the last PublishCounts
  std::size_t late_dropped_ = 0;
  std::size_t windows_closed_ = 0;
  std::size_t tail_dropped_ = 0;
};

// Selects and removes from `pending` the records `decision` names — stable partition by
// entry < t1, or every remaining record for take_all — prepending and consuming
// `last_window` for a merged-tail re-close, and returns them sorted by entry time
// (stably: ties keep arrival order), ready for WindowLogBuilder. The fleet's lanes that
// keep records (shard/; those whose windows may reach StEM) select with it: a lane
// applies the global membership rule to its sub-sequence. Sampler-free lanes keep no
// records and never call it; the order it returns is the one MeanFieldRecordFold sums a
// window's responses in, so their folded windows equal a fold of its output bit for bit.
std::vector<TaskRecord> TakeDecisionRecords(const WindowSpanTracker::SpanDecision& decision,
                                            std::vector<TaskRecord>& pending,
                                            std::vector<TaskRecord>& last_window);

}  // namespace qnet

#endif  // QNET_STREAM_WINDOW_ASSEMBLER_H_
