// Per-lane and fleet-wide throughput/backpressure counters for the sharded streaming
// front-end (see shard/sharded_streaming.h). All values are collected after Run()
// completes; nothing here is read concurrently.

#ifndef QNET_SHARD_FLEET_STATS_H_
#define QNET_SHARD_FLEET_STATS_H_

#include <cstddef>
#include <vector>

namespace qnet {

struct LaneStats {
  std::size_t tasks_routed = 0;
  // Close tokens processed (every global window, including merged-tail re-closes —
  // identical across lanes by construction).
  std::size_t windows_closed = 0;
  // Windows in which this lane held zero records (it still answers the close token
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
  // High-water mark of the lane's ingest queue (records + tokens awaiting the worker);
  // pinned at the configured capacity when the router had to block (backpressure).
  // 0 in the in-thread arrangement (a single lane, or sampler-free lanes at any K),
  // which has no queue.
  std::size_t peak_queue_depth = 0;
  // Wall-clock spent inside this lane's StEM fits.
  double fit_seconds = 0.0;
  // Largest event-time distance the lane's processing trailed the router's ingest
  // watermark, sampled at every window-close broadcast.
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
  // Total wall-clock the router spent blocked on full lane queues (backpressure: the
  // fleet ingested faster than its slowest lane could fit). 0 in the in-thread
  // arrangement at any K, which has no queues.
  double router_blocked_seconds = 0.0;
  // Longest a closed window waited between its close broadcast and the last lane
  // delivering its fit — StreamingStats::max_sweep_lag_seconds is this figure of the
  // single-lane fleet.
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
