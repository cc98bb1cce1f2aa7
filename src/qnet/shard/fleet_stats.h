// Per-lane and fleet-wide throughput/backpressure counters for the sharded streaming
// front-end (see shard/sharded_streaming.h). All values are collected after Run()
// completes, and every field is a pure function of the stream and the options except
// the wall-clock ones (the seconds and the per-second rates).

#ifndef QNET_SHARD_FLEET_STATS_H_
#define QNET_SHARD_FLEET_STATS_H_

#include <cstddef>
#include <vector>

namespace qnet {

struct LaneStats {
  std::size_t tasks_routed = 0;
  // Window decisions the lane closed (every global window, including merged-tail
  // re-closes — identical across lanes by construction).
  std::size_t windows_closed = 0;
  // Windows in which this lane held zero records (it still answers the decision
  // immediately, so an idle lane never stalls the global watermark).
  std::size_t empty_windows = 0;
  // Windows whose lane-local sub-log was missing a queue entirely, so no StEM fit ran
  // (the lane's tasks still count toward the pooled estimate's lambda, empirically).
  std::size_t skipped_fits = 0;
  // Lane fits answered with a mean-field-only (degraded) fit — over the degrade task
  // budget, in all-variational mode, or a missing-queue fallback under kDegrade.
  std::size_t degraded_fits = 0;
  // Sum of StEM iterations this lane's fits actually ran (early-stop savings witness).
  std::size_t fit_iterations_total = 0;
  // High-water mark of records buffered in the lane — each lane's bounded-memory
  // witness. A lane whose windows may reach StEM keeps its records: the open window's
  // buffer plus the previous window retained for the trailing merge, so the mark is
  // bounded by the widest window, never by the trace length. A sampler-free lane
  // (kMeanFieldOnly)
  // folds each record as it takes it and buffers only the records it holds past the
  // open span (allowed_lateness > 0), so it reads 0 on an entry-ordered stream without
  // lateness.
  std::size_t peak_buffered_tasks = 0;
  // Always 0: lanes have no ingest queue (every record reaches its lane by a direct
  // call on the caller's thread). Kept for readers written against queued lanes.
  std::size_t peak_queue_depth = 0;
  // Wall-clock spent inside this lane's StEM fits, on whichever thread ran them.
  double fit_seconds = 0.0;
  // Largest event-time distance the lane's processing trailed the router's ingest
  // watermark, sampled after the lane closed each window decision.
  double max_watermark_lag = 0.0;
  // tasks_routed / fleet wall time.
  double tasks_per_second = 0.0;
};

struct FleetStats {
  std::size_t lanes = 0;
  std::size_t tasks_ingested = 0;
  std::size_t windows_estimated = 0;
  std::size_t late_dropped = 0;
  std::size_t tail_dropped = 0;
  double total_wall_seconds = 0.0;
  double tasks_per_second = 0.0;  // end-to-end sustained ingest rate
  // Total wall-clock the caller spent waiting on the fit pool's in-flight bound
  // (backpressure: 2W StEM fits were in flight, so the fleet ingested faster than the
  // pool could fit). 0 when the pool has one worker (W = 1), whose fits run inline.
  double router_blocked_seconds = 0.0;
  // Longest a closed window waited between its announcement to the merger and the last
  // lane's fit of it reaching the merger — StreamingStats::max_sweep_lag_seconds is this
  // figure of the single-lane fleet.
  double max_merge_lag_seconds = 0.0;
  // Pooled estimates emitted with degraded = true (some contributing lane fit was
  // mean-field-only; a merged-tail re-fit counts again).
  std::size_t degraded_windows = 0;
  // Sum of pooled WindowEstimate::fit_iterations across emitted estimates.
  std::size_t fit_iterations_total = 0;
  std::vector<LaneStats> lane;
};

}  // namespace qnet

#endif  // QNET_SHARD_FLEET_STATS_H_
