// Pull-based trace sources for streaming inference (the paper's Section 6 "online,
// distributed inference" direction, targeting the journal version's cluster-service
// workloads that never fit one EventLog in memory).
//
// A TaskRecord is one completed task: its system entry time plus the (state, queue,
// arrival, departure) chain of its queue visits, each visit carrying its observation
// flags. Records are the unit of streaming — a record is self-contained (the observation
// consistency invariant departure_observed[pi(e)] == arrival_observed[e] is within-task,
// so per-window Observations can be rebuilt from records alone; see WindowLogBuilder).
//
// A TraceStream yields records in nondecreasing entry-time order (the same order
// EventLog::AddTask requires). Sources with bounded reordering — e.g. a live collector
// whose tasks complete out of entry order — must do their own bounded buffering; the
// WindowSpanTracker additionally tolerates records up to `allowed_lateness` behind the
// watermark.

#ifndef QNET_STREAM_TASK_RECORD_H_
#define QNET_STREAM_TASK_RECORD_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/support/check.h"

namespace qnet {

struct TaskVisit {
  std::int32_t state = -1;
  std::int32_t queue = -1;
  double arrival = 0.0;
  double departure = 0.0;
  // Observation flags for this visit's times. Within-task consistency (the departure of
  // visit i is the same physical measurement as the arrival of visit i+1) is restored by
  // WindowLogBuilder, so only arrival flags and the final visit's departure flag matter.
  bool arrival_observed = true;
  bool departure_observed = true;

  friend bool operator==(const TaskVisit&, const TaskVisit&) = default;
};

struct TaskRecord {
  double entry_time = 0.0;
  std::vector<TaskVisit> visits;

  void Clear() {
    entry_time = 0.0;
    visits.clear();
  }

  friend bool operator==(const TaskRecord&, const TaskRecord&) = default;
};

// Pull-based source of completed tasks in nondecreasing entry-time order.
class TraceStream {
 public:
  virtual ~TraceStream() = default;

  // Fills `out` with the next record and returns true; returns false at end of stream
  // (out is left unspecified). Implementations reuse out's capacity: the replay streams
  // and the live simulator fill its visit vector in place, so an ingest loop stops
  // allocating once that vector is warm.
  virtual bool Next(TaskRecord& out) = 0;

  // Number of queues (including the virtual arrival queue 0) of the network the trace
  // was recorded from; per-window EventLogs are built with this.
  virtual int NumQueues() const = 0;
};

// Copies task `task` of `log` (+ its observation flags) into a TaskRecord. The inverse of
// WindowLogBuilder::Add up to event renumbering.
TaskRecord MakeTaskRecord(const EventLog& log, const Observation& obs, int task);
// Same, reusing `out`'s capacity.
void FillTaskRecord(const EventLog& log, const Observation& obs, int task, TaskRecord& out);

// Throws qnet::Error for a record that EventLog::AddTask/AddVisit would reject as the
// next task of a window whose previous record entered at `previous_entry` (0 for a
// window's first record): no visits, an entry time below 0 or below previous_entry, a
// queue outside [1, num_queues), a departure before its arrival, or a visit that does
// not start within 1e-9 of where the entry or the previous visit ended. NaN times fail
// the last two. WindowLogBuilder applies it. MeanFieldRecordFold runs the same pieces
// below inside its own visit loop, all but the entry order (it folds records in any
// order), so a window that is folded without building its log skips none of the checks
// of the log it stands for.
void ValidateTaskRecord(const TaskRecord& record, int num_queues, double previous_entry);

// ValidateTaskRecord's record-level checks (visits, entry time), in its order, without
// the entry order against the previous record.
inline void CheckTaskRecordEntry(const TaskRecord& record) {
  QNET_CHECK(!record.visits.empty(), "task record has no visits");
  QNET_CHECK(record.entry_time >= 0.0, "entry time must be nonnegative: ", record.entry_time);
}

// ValidateTaskRecord's checks of one visit, in its order; `previous_departure` is where
// the entry (for the first visit) or the previous visit ended. Returns where this one
// ends.
inline double CheckTaskVisit(const TaskVisit& visit, int num_queues,
                             double previous_departure) {
  QNET_CHECK(visit.queue >= 1 && visit.queue < num_queues, "bad queue id ", visit.queue);
  QNET_CHECK(visit.departure >= visit.arrival, "departure before arrival");
  QNET_CHECK(std::abs(visit.arrival - previous_departure) < 1e-9,
             "task continuity violated: arrival=", visit.arrival,
             " but previous departure=", previous_departure);
  return visit.departure;
}

}  // namespace qnet

#endif  // QNET_STREAM_TASK_RECORD_H_
