// Test helper: hand-built TaskRecords for a 4-queue network (queues 1..3) whose
// per-queue arrival order is NOT their id order. Shared by the window-build and
// mean-field fold suites.

#ifndef QNET_TESTS_SUPPORT_OVERTAKING_RECORDS_H_
#define QNET_TESTS_SUPPORT_OVERTAKING_RECORDS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "qnet/stream/task_record.h"
#include "qnet/support/rng.h"

namespace qnet_testing {

// Every sort fallback of a window build runs on these: pairs of tasks share an entry
// time (entry = task / 2), tasks of type 0 hold queue 1 long and are overtaken at queue 3
// by type-1 tasks that took the short queue 2, and some pairs tie on their arrival at
// queue 1. Observation flags vary, so tasks are partially observed.
inline std::vector<qnet::TaskRecord> OvertakingRecords(std::size_t count) {
  std::vector<qnet::TaskRecord> records(count);
  qnet::Rng rng(11);
  for (std::size_t k = 0; k < count; ++k) {
    qnet::TaskRecord& record = records[k];
    record.entry_time = static_cast<double>(k / 2);
    std::vector<std::pair<int, double>> route;  // (queue, service)
    switch (k % 3) {
      case 0:
        route = {{1, 1.0 + static_cast<double>(k % 5)}, {3, 0.5}};
        break;
      case 1:
        route = {{2, 0.25}, {3, 0.5}};
        break;
      default:
        route = {{1, 0.5}};
        break;
    }
    double t = record.entry_time;
    for (const auto& [queue, service] : route) {
      qnet::TaskVisit visit;
      visit.state = queue;
      visit.queue = queue;
      visit.arrival = t;
      visit.departure = t + service;
      visit.arrival_observed = rng.Uniform() < 0.5;
      visit.departure_observed = rng.Uniform() < 0.5;
      record.visits.push_back(visit);
      t = visit.departure;
    }
  }
  return records;
}

}  // namespace qnet_testing

#endif  // QNET_TESTS_SUPPORT_OVERTAKING_RECORDS_H_
