// Hash partitioning of a TraceStream across K lanes.
//
// The router assigns every TaskRecord to lane TaskLane(TaskHash(record), lanes) — a pure
// function of the record's physical identity (support/task_hash.h), so placement is
// stable across runs, hosts, and external partitioners, and re-sharding to a different
// lane count is a deterministic re-mapping of the same hashes. A single lane skips the
// hash (TaskLane(h, 1) == 0 for every h). An optional `lane_of` override substitutes a
// caller-defined partition (e.g. tenant- or entry-point-keyed routing); it must be a
// pure function of the record for the fleet's determinism contract to hold.
//
// The router is single-threaded (it runs on the fleet's Run() caller's thread, which hands
// each record to its lane directly) and keeps per-lane routed counts for FleetStats.

#ifndef QNET_SHARD_LANE_ROUTER_H_
#define QNET_SHARD_LANE_ROUTER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "qnet/stream/task_record.h"

namespace qnet {

struct LaneRouterOptions {
  std::size_t lanes = 1;
  // Optional partition override; must return a value in [0, lanes) and be a pure
  // function of the record. Default: TaskLane(TaskHash(record), lanes).
  std::function<std::size_t(const TaskRecord&)> lane_of;
};

class LaneRouter {
 public:
  explicit LaneRouter(LaneRouterOptions options);

  std::size_t Lanes() const { return options_.lanes; }

  // Lane of `record`; also counts the assignment.
  std::size_t Route(const TaskRecord& record);

  // Records routed to each lane so far.
  const std::vector<std::size_t>& LaneCounts() const { return counts_; }

 private:
  LaneRouterOptions options_;
  std::vector<std::size_t> counts_;
};

}  // namespace qnet

#endif  // QNET_SHARD_LANE_ROUTER_H_
