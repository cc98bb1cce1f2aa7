#include "qnet/stream/task_record.h"

#include "qnet/support/check.h"

namespace qnet {

void FillTaskRecord(const EventLog& log, const Observation& obs, int task, TaskRecord& out) {
  QNET_CHECK(task >= 0 && task < log.NumTasks(), "task id out of range: ", task);
  out.Clear();
  out.entry_time = log.TaskEntryTime(task);
  const auto& chain = log.TaskEvents(task);
  out.visits.reserve(chain.size() - 1);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const Event& ev = log.At(chain[i]);
    TaskVisit visit;
    visit.state = ev.state;
    visit.queue = ev.queue;
    visit.arrival = ev.arrival;
    visit.departure = ev.departure;
    visit.arrival_observed = obs.ArrivalObserved(chain[i]);
    visit.departure_observed = obs.DepartureObserved(chain[i]);
    out.visits.push_back(visit);
  }
}

TaskRecord MakeTaskRecord(const EventLog& log, const Observation& obs, int task) {
  TaskRecord record;
  FillTaskRecord(log, obs, task, record);
  return record;
}

void ValidateTaskRecord(const TaskRecord& record, int num_queues, double previous_entry) {
  CheckTaskRecordEntry(record);
  QNET_CHECK(record.entry_time >= previous_entry,
             "tasks must be added in entry-time order; entry=", record.entry_time,
             " previous=", previous_entry);
  double previous_departure = record.entry_time;
  for (const TaskVisit& visit : record.visits) {
    previous_departure = CheckTaskVisit(visit, num_queues, previous_departure);
  }
}

}  // namespace qnet
