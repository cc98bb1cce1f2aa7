#include "qnet/stream/task_record.h"

#include <cmath>

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
  QNET_CHECK(!record.visits.empty(), "task record has no visits");
  QNET_CHECK(record.entry_time >= 0.0, "entry time must be nonnegative: ", record.entry_time);
  QNET_CHECK(record.entry_time >= previous_entry,
             "tasks must be added in entry-time order; entry=", record.entry_time,
             " previous=", previous_entry);
  double previous_departure = record.entry_time;
  for (const TaskVisit& visit : record.visits) {
    QNET_CHECK(visit.queue >= 1 && visit.queue < num_queues, "bad queue id ", visit.queue);
    QNET_CHECK(visit.departure >= visit.arrival, "departure before arrival");
    QNET_CHECK(std::abs(visit.arrival - previous_departure) < 1e-9,
               "task continuity violated: arrival=", visit.arrival,
               " but previous departure=", previous_departure);
    previous_departure = visit.departure;
  }
}

}  // namespace qnet
