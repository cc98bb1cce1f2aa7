#include "qnet/stream/window_assembler.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "qnet/support/check.h"
#include "qnet/telemetry/metrics.h"

namespace qnet {

namespace {

// The observation flag of the departure of event `k` of `record`, with events numbered
// as a window numbers them: k = 0 is the initial event, k = i + 1 is visit i. A
// departure followed by another visit is the same physical measurement as that visit's
// arrival and takes its flag (the consistency invariant); only the final visit keeps its
// own departure flag.
bool DepartureObserved(const TaskRecord& record, std::size_t k) {
  return k < record.visits.size() ? record.visits[k].arrival_observed
                                  : record.visits.back().departure_observed;
}

}  // namespace

WindowLogBuilder::WindowLogBuilder(int num_queues)
    : num_queues_(num_queues), log_(num_queues) {}

void WindowLogBuilder::Add(const TaskRecord& record) {
  const int tasks = log_.NumTasks();
  ValidateTaskRecord(record, num_queues_, tasks > 0 ? log_.TaskEntryTime(tasks - 1) : 0.0);
  const int task = log_.AddTask(record.entry_time);
  // Initial event: arrival observed by convention (t = 0).
  obs_.arrival_observed.push_back(1);
  obs_.departure_observed.push_back(DepartureObserved(record, 0) ? 1 : 0);
  bool all_arrivals_observed = true;
  for (std::size_t i = 0; i < record.visits.size(); ++i) {
    const TaskVisit& visit = record.visits[i];
    log_.AddVisit(task, visit.state, visit.queue, visit.arrival, visit.departure);
    obs_.arrival_observed.push_back(visit.arrival_observed ? 1 : 0);
    obs_.departure_observed.push_back(DepartureObserved(record, i + 1) ? 1 : 0);
    all_arrivals_observed = all_arrivals_observed && visit.arrival_observed;
  }
  if (all_arrivals_observed) {
    obs_.observed_tasks.push_back(task);
  }
}

void WindowLogBuilder::Restart() {
  log_.Reset(num_queues_);
  obs_.arrival_observed.clear();
  obs_.departure_observed.clear();
  obs_.observed_tasks.clear();
}

void WindowLogBuilder::Build() {
  StreamCounters::Get().window_logs_built->Increment();
  log_.BuildQueueLinks();
  obs_.Validate(log_);
}

std::pair<EventLog, Observation> WindowLogBuilder::Finish() {
  Build();
  std::pair<EventLog, Observation> window{std::move(log_), std::move(obs_)};
  Restart();
  return window;
}

MeanFieldRecordFold::MeanFieldRecordFold(int num_queues) : num_queues_(num_queues) {
  Clear(open_);
  Clear(retained_);
}

bool MeanFieldRecordFold::TermBefore(const Term& a, const Term& b) {
  if (a.entry_time != b.entry_time) {
    return a.entry_time < b.entry_time;
  }
  return a.arrival != b.arrival ? a.arrival < b.arrival : a.visit < b.visit;
}

void MeanFieldRecordFold::Clear(Window& window) const {
  window.stats.Reset(num_queues_);
  window.terms.clear();
  window.sorted = true;
}

void MeanFieldRecordFold::Resum(Window& window) {
  std::fill(window.stats.resp_sum.begin(), window.stats.resp_sum.end(), 0.0);
  for (const Term& term : window.terms) {
    window.stats.resp_sum[static_cast<std::size_t>(term.queue)] += term.response;
  }
}

void MeanFieldRecordFold::Restart(bool retain) {
  if (retain) {
    std::swap(open_, retained_);
  }
  Clear(open_);
}

void MeanFieldRecordFold::Add(const TaskRecord& record, std::uint64_t arrival) {
  // ValidateTaskRecord's checks but the entry order, run in its order but inside the one
  // pass over the visits that folds them.
  CheckTaskRecordEntry(record);
  next_arrival_ = std::max(next_arrival_, arrival + 1);
  MeanFieldStats& stats = open_.stats;
  // The initial event lives on the arrival queue; its arrival is never read.
  stats.Add(QueueingNetwork::kArrivalQueue, 0.0, record.entry_time, true,
            DepartureObserved(record, 0));
  double previous_departure = record.entry_time;
  for (std::size_t i = 0; i < record.visits.size(); ++i) {
    const TaskVisit& visit = record.visits[i];
    previous_departure = CheckTaskVisit(visit, num_queues_, previous_departure);
    const bool departure_observed = DepartureObserved(record, i + 1);
    stats.Add(visit.queue, visit.arrival, visit.departure, visit.arrival_observed,
              departure_observed);
    if (visit.arrival_observed && departure_observed) {
      const Term term{record.entry_time, arrival, static_cast<std::uint32_t>(i), visit.queue,
                      visit.departure - visit.arrival};
      // Out of order from here on: stats.Add's running sum is no longer the sorted sum.
      if (open_.sorted && !open_.terms.empty() && TermBefore(term, open_.terms.back())) {
        open_.sorted = false;
      }
      open_.terms.push_back(term);
    }
  }
}

void MeanFieldRecordFold::MergePrevious() {
  MeanFieldStats& merged = retained_.stats;
  const MeanFieldStats& tail = open_.stats;
  for (std::size_t q = 0; q < merged.counts.size(); ++q) {
    merged.counts[q] += tail.counts[q];
    merged.resp_count[q] += tail.resp_count[q];
  }
  merged.observed_responses += tail.observed_responses;
  merged.t_min = std::min(merged.t_min, tail.t_min);
  merged.t_max = std::max(merged.t_max, tail.t_max);
  merged.last_entry = std::max(merged.last_entry, tail.last_entry);
  merged.entry_observed = merged.entry_observed || tail.entry_observed;
  retained_.sorted = retained_.sorted && open_.sorted &&
                     (retained_.terms.empty() || open_.terms.empty() ||
                      !TermBefore(open_.terms.front(), retained_.terms.back()));
  retained_.terms.insert(retained_.terms.end(), open_.terms.begin(), open_.terms.end());
  std::swap(open_, retained_);
  Clear(retained_);
  if (open_.sorted) {
    Resum(open_);
  }
}

const MeanFieldStats& MeanFieldRecordFold::Stats() {
  if (!open_.sorted) {
    // Keys are unique (arrival indices differ between records, visits within one), so
    // the unstable sort has one result.
    std::sort(open_.terms.begin(), open_.terms.end(), TermBefore);
    Resum(open_);
    open_.sorted = true;
  }
  return open_.stats;
}

std::pair<EventLog, Observation> ExtractTaskWindow(const EventLog& truth,
                                                   const Observation& obs,
                                                   const std::vector<int>& tasks) {
  QNET_CHECK(!tasks.empty(), "empty task window");
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    QNET_CHECK(tasks[i - 1] < tasks[i], "window tasks must be sorted and unique");
  }
  WindowLogBuilder builder(truth.NumQueues());
  TaskRecord record;
  for (const int task : tasks) {
    FillTaskRecord(truth, obs, task, record);
    builder.Add(record);
  }
  return builder.Finish();
}

// --- WindowSpanTracker -------------------------------------------------------------------

WindowSpanTracker::WindowSpanTracker(const WindowAssemblerOptions& options)
    : options_(options) {
  QNET_CHECK(options_.window_duration > 0.0, "window duration must be positive");
  QNET_CHECK(options_.allowed_lateness >= 0.0, "allowed lateness must be nonnegative");
  window_end_ = options_.window_duration;
}

WindowSpanTracker::PushVerdict WindowSpanTracker::Push(double entry_time) {
  QNET_CHECK(!finished_, "Push after Finish");
  // Rejected before any state changes: an infinite entry time would drive the close
  // loop's fast-forward bound to infinity (it would never exit), and a NaN would never
  // compare into any window.
  QNET_CHECK(std::isfinite(entry_time), "entry time must be finite: ", entry_time);
  ++tasks_pushed_;  // published to the registry by PublishCounts
  PushVerdict verdict = PushVerdict::kBuffered;
  if (entry_time < window_start_) {
    // Late: this record's window has already closed and been handed off.
    if (options_.late_policy == LateRecordPolicy::kDrop) {
      ++late_dropped_;
      StreamCounters::Get().late_dropped->Increment();
      return PushVerdict::kLateDropped;
    }
    // kMergeIntoCurrent: joins the currently open window (entry < t1 holds trivially).
    verdict = PushVerdict::kLateMerged;
  }
  watermark_ = std::max(watermark_, entry_time);
  pending_.push_back(entry_time);
  TryCloseWindows();
  return verdict;
}

void WindowSpanTracker::TryCloseWindows() {
  const std::size_t min_needed = std::max<std::size_t>(options_.min_tasks_per_window, 2);
  // At end of stream the watermark hold-back is released: nothing later can arrive.
  const double watermark = finished_ ? watermark_ : watermark_ - options_.allowed_lateness;
  const auto in_window = [&](double entry) { return entry < window_end_; };
  while (watermark >= window_end_) {
    // An entry-ordered stream leaves pending_ partitioned already, and a stable partition
    // of partitioned input is the identity: find the boundary without the temporary
    // buffer and the pass that moves every entry.
    const auto in_window_end =
        std::is_partitioned(pending_.begin(), pending_.end(), in_window)
            ? std::partition_point(pending_.begin(), pending_.end(), in_window)
            : std::stable_partition(pending_.begin(), pending_.end(), in_window);
    const auto count = static_cast<std::size_t>(in_window_end - pending_.begin());
    if (count < min_needed) {
      // Too small: the window's span extends into the next duration (batch semantics).
      // Fast-forward over record-free durations without re-partitioning — nothing can
      // change until window_end passes another pending entry or the watermark. The
      // repeated addition (rather than one multiply) keeps window_end bit-identical to
      // the batch estimator's one-duration-at-a-time grid.
      double bound = watermark;
      for (const double entry : pending_) {
        if (entry >= window_end_) {
          bound = std::min(bound, entry);
        }
      }
      do {
        window_end_ += options_.window_duration;
      } while (window_end_ <= bound);
      continue;
    }
    pending_.erase(pending_.begin(), in_window_end);
    QueueDecision(window_start_, window_end_, count, 0, /*take_all=*/false);
    window_start_ = window_end_;
    window_end_ += options_.window_duration;
  }
}

void WindowSpanTracker::Finish() {
  QNET_CHECK(!finished_, "Finish called twice");
  finished_ = true;
  PublishCounts();  // every push is in: nothing can follow Finish
  TryCloseWindows();
  if (pending_.empty()) {
    return;
  }
  const std::size_t min_needed = std::max<std::size_t>(options_.min_tasks_per_window, 2);
  const double t1 = std::max(window_end_, watermark_);
  if (pending_.size() >= min_needed) {
    QueueDecision(window_start_, t1, pending_.size(), 0, /*take_all=*/true);
  } else if (options_.merge_trailing_window && have_last_window_) {
    // Trailing remainder too small for its own estimate: merge it into the previous
    // window's span and re-emit that window (merged_tail_tasks marks the replacement).
    const std::size_t tail = pending_.size();
    const std::size_t merged_count = last_window_count_ + tail;
    have_last_window_ = false;
    QueueDecision(last_window_t0_, t1, merged_count, tail, /*take_all=*/true);
  } else if (pending_.size() >= 2) {
    // No previous window to merge into; a 2+-task remainder still gets an estimate.
    QueueDecision(window_start_, t1, pending_.size(), 0, /*take_all=*/true);
  } else {
    tail_dropped_ += pending_.size();
    StreamCounters::Get().tail_dropped->Add(pending_.size());
  }
  pending_.clear();
}

void WindowSpanTracker::QueueDecision(double t0, double t1, std::size_t count,
                                      std::size_t merged_tail, bool take_all) {
  SpanDecision decision;
  decision.t0 = t0;
  decision.t1 = t1;
  decision.count = count;
  decision.merged_tail_tasks = merged_tail;
  decision.take_all = take_all;
  if (merged_tail > 0) {
    // The merged re-close replaces the previous window: same emission index.
    QNET_DCHECK(next_window_index_ > 0, "merged tail before any window");
    decision.window_index = next_window_index_ - 1;
  } else {
    decision.window_index = next_window_index_++;
    ++windows_closed_;
    StreamCounters::Get().windows_closed->Increment();
    // Every normally closed window becomes the trailing-merge target — including ones
    // whose close was deferred until Finish released the lateness hold-back.
    if (options_.merge_trailing_window) {
      last_window_t0_ = t0;
      last_window_count_ = count;
      have_last_window_ = true;
    }
  }
  closed_.push_back(decision);
  PublishCounts();
}

void WindowSpanTracker::PublishCounts() {
  StreamCounters::Get().tasks_ingested->Add(tasks_pushed_ - tasks_published_);
  tasks_published_ = tasks_pushed_;
}

WindowSpanTracker::SpanDecision WindowSpanTracker::PopClosed() {
  QNET_CHECK(!closed_.empty(), "no closed span decision to pop");
  const SpanDecision decision = closed_.front();
  closed_.pop_front();
  return decision;
}

std::vector<TaskRecord> TakeDecisionRecords(const WindowSpanTracker::SpanDecision& decision,
                                            std::vector<TaskRecord>& pending,
                                            std::vector<TaskRecord>& last_window) {
  // Select the records the decision's membership rule names. Stable: records with equal
  // entry times keep their arrival order, so an entry-ordered stream reproduces the
  // batch task order exactly. A stable partition or sort of input that is already
  // partitioned or sorted is the identity, so the usual entry-ordered case skips both
  // (and their temporary buffers) without changing the result.
  const auto in_window = [&](const TaskRecord& record) {
    return record.entry_time < decision.t1;
  };
  const auto entry_before = [](const TaskRecord& a, const TaskRecord& b) {
    return a.entry_time < b.entry_time;
  };
  auto in_window_end = pending.end();
  if (!decision.take_all) {
    in_window_end = std::is_partitioned(pending.begin(), pending.end(), in_window)
                        ? std::partition_point(pending.begin(), pending.end(), in_window)
                        : std::stable_partition(pending.begin(), pending.end(), in_window);
  }
  std::vector<TaskRecord> records;
  if (decision.merged_tail_tasks > 0) {
    // The merged re-close replaces the previous window: its records come first.
    records = std::move(last_window);
    last_window.clear();
  }
  records.insert(records.end(), std::make_move_iterator(pending.begin()),
                 std::make_move_iterator(in_window_end));
  pending.erase(pending.begin(), in_window_end);
  if (!std::is_sorted(records.begin(), records.end(), entry_before)) {
    std::stable_sort(records.begin(), records.end(), entry_before);
  }
  return records;
}

}  // namespace qnet
