#include "qnet/stream/streaming_estimator.h"

#include <utility>

#include "qnet/shard/sharded_streaming.h"

namespace qnet {

WindowFitChain::Plan WindowFitChain::PlanFit(std::size_t window_index, bool merged_tail,
                                             double t0) {
  Plan plan;
  const std::uint64_t window_seed = MixSeed(seed_, window_index);
  plan.seed = salted_ ? MixSeed(window_seed, lane_) : window_seed;
  // A re-fit replaces the previous window's estimate, so it starts from the same rates
  // that window's first fit did.
  plan.warm_start = merged_tail ? prev_input_rates_ : rates_;
  plan.arrival_time_origin = window_local_ ? t0 : 0.0;
  return plan;
}

StreamingEstimator::StreamingEstimator(std::vector<double> init_rates, std::uint64_t seed,
                                       const StreamingEstimatorOptions& options)
    : init_rates_(std::move(init_rates)), seed_(seed), options_(options) {}

std::vector<WindowEstimate> StreamingEstimator::Run(TraceStream& stream) {
  stats_ = StreamingStats{};
  ShardedStreamingOptions fleet_options;
  fleet_options.stream = options_;
  ShardedStreamingEstimator fleet(init_rates_, seed_, fleet_options);
  std::vector<WindowEstimate> estimates = fleet.Run(stream);

  const FleetStats& fleet_stats = fleet.Stats();
  stats_.tasks_ingested = fleet_stats.tasks_ingested;
  stats_.windows_estimated = fleet_stats.windows_estimated;
  stats_.late_dropped = fleet_stats.late_dropped;
  stats_.tail_dropped = fleet_stats.tail_dropped;
  stats_.peak_buffered_tasks = fleet_stats.lane.front().peak_buffered_tasks;
  stats_.total_wall_seconds = fleet_stats.total_wall_seconds;
  stats_.tasks_per_second = fleet_stats.tasks_per_second;
  stats_.max_sweep_lag_seconds = fleet_stats.max_merge_lag_seconds;
  stats_.degraded_windows = fleet_stats.degraded_windows;
  stats_.fit_iterations_total = fleet_stats.fit_iterations_total;
  return estimates;
}

}  // namespace qnet
