#include "qnet/shard/lane_router.h"

#include <utility>

#include "qnet/support/check.h"
#include "qnet/support/task_hash.h"

namespace qnet {

LaneRouter::LaneRouter(LaneRouterOptions options)
    : options_(std::move(options)), counts_(options_.lanes, 0) {
  QNET_CHECK(options_.lanes > 0, "LaneRouter needs a positive lane count");
}

std::size_t LaneRouter::Route(const TaskRecord& record) {
  std::size_t lane = 0;  // one lane needs no hash: TaskLane(h, 1) == 0 for every h
  if (options_.lane_of) {
    lane = options_.lane_of(record);
  } else if (options_.lanes > 1) {
    lane = TaskLane(TaskHash(record), options_.lanes);
  }
  QNET_CHECK(lane < options_.lanes, "partitioner returned lane ", lane, " of ",
             options_.lanes);
  ++counts_[lane];
  return lane;
}

}  // namespace qnet
