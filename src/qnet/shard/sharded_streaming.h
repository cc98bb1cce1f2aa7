// Sharded streaming front-end: hash-partitioned multi-lane windowed inference with
// deterministic pooled estimates.
//
// One ingest (router) thread pulls TaskRecords from any TraceStream and hash-partitions
// them across K lanes (LaneRouter over support/task_hash.h). Each lane is an independent
// worker — record intake, per-window record fold (plus a log build for windows StEM
// fits), and a warm-started windowed fit chain (WindowFitChain). A LaneMerger pools the
// K per-window fits into one WindowEstimate per global window. This is the only
// streaming window loop: the plain StreamingEstimator runs as the single-lane fleet.
//
// Record path: every lane folds each record into its open window's mean-field statistics
// (MeanFieldRecordFold) when it takes it, and only a lane whose windows may reach StEM
// keeps records, for the log build. A sampler-free lane (kMeanFieldOnly) on the caller's
// thread therefore takes the stream's record by reference: no copy, no record buffer, no
// selection or re-fold at the close. The router passes the open span's end with each
// record; a record at or past it (possible only with allowed_lateness > 0, or for a lane
// that keeps records, which gets the record that closes a window before the close) is
// held until the span it belongs to opens, and the fold sums responses in the sorted
// window's order, so estimates are bit-identical to folding each window's sorted
// records. Threaded lanes get their records through the lane queue
// (shard/lane_queue.h): the router copies each record once into recycled capacity and
// it moves by swap from there; a lane that keeps records returns those that leave its
// windows to a spare pool. The steady-state record path therefore allocates per window,
// not per task.
//
// Execution arrangement: the work picks it; no option does. A single lane, and lanes
// that never reach StEM (FastPathMode::kMeanFieldOnly) at any K, run on the Run()
// caller's thread: the router calls each lane's intake directly and answers each close
// decision by closing every lane in lane order — no router batches, lane queues or
// worker threads — so each window is fitted, merged and emitted before the next record
// is pulled. A sampler-free lane does ~50 ns of work per record, less than a queue
// hand-off costs. StEM lanes at K > 1 each run on their own PipelineSlot thread
// (infer/thread_pool.h) behind a bounded queue, so the K lanes' fits run in parallel and
// overlap the router's ingestion. At a fixed K, then, exactly one arrangement runs.
//
// Window coordination: the router runs one WindowSpanTracker over the GLOBAL entry-time
// sequence, so window spans, counts, and emission indices are bit-identical for ANY lane
// count. Close decisions travel in band through every lane's queue (or are direct calls
// in the in-thread arrangement) — no lane can close window w before it has consumed
// every record the router placed ahead of the token — and the merger releases window w
// only when all K lanes have answered it: the pooled stream advances as the min over
// lane progress (an idle lane answers immediately and never stalls the fleet).
//
// Determinism contract: lane l's fit of window w is seeded MixSeed(MixSeed(base, w), l)
// (for K >= 2; a single lane elides the lane salt, which is the plain
// StreamingEstimator's MixSeed(base, w)). Seeds, warm starts, window membership, and
// pooling order are pure functions of (stream contents, options, base seed, K) — never of
// thread scheduling, queue timing, queue capacity or router batch size. Pooled estimates
// are therefore bit-identical across repeated runs for a FIXED K. Across DIFFERENT K the
// estimates are statistically consistent but not bit-identical: each lane fits its own
// hash-thinned sub-stream (the mean-field-flavored decomposition that buys horizontal
// scaling), so K is part of the estimator's statistical definition. The merge weighting (lambda sums; service rates and waits
// task-count-weighted) is documented in shard/lane_merger.h.

#ifndef QNET_SHARD_SHARDED_STREAMING_H_
#define QNET_SHARD_SHARDED_STREAMING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "qnet/shard/fleet_stats.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/task_record.h"

namespace qnet {

struct ShardedStreamingOptions {
  // Number of hash lanes K (the estimation decomposition width; see file comment).
  std::size_t lanes = 1;
  // Bounded per-lane ingest queue capacity (records + tokens). A full queue blocks the
  // router — backpressure, reported in FleetStats::router_blocked_seconds. Applies to
  // the threaded arrangement (StEM lanes at K > 1) only; in-thread lanes have no queue.
  std::size_t lane_queue_capacity = 1024;
  // Records are handed to a lane in batches of up to this size (one lock + one wake per
  // batch instead of per record). Window-close tokens flush every lane's batch first, so
  // item order — and therefore every estimate — is bit-identical for any value; this is
  // a pure wall-clock knob of the threaded arrangement (in-thread, the router hands each
  // record over directly).
  std::size_t router_batch = 32;
  // Optional partition override (default TaskLane(TaskHash(record), lanes)); must be a
  // pure function of the record. See shard/lane_router.h.
  std::function<std::size_t(const TaskRecord&)> lane_of;
  // Correct the pooled per-queue service rates and waits for the cross-lane waiting
  // share (the documented utilization-coupled bias of lane decomposition) using the
  // mean-field response invariant — see shard/lane_merger.h and infer/meanfield.h.
  // Deterministic (a pure function of the lane fits), but default off: the historical
  // pooled estimates are preserved bit-exactly. The single-contributing-lane verbatim
  // path is never corrected, so a K = 1 fleet's estimates are unaffected.
  bool cross_lane_bias_correction = false;
  // Window, StEM, lambda-anchoring and on_window options, shared by every lane. StEM
  // lanes at K > 1 run threaded; a single lane or sampler-free lanes run in-thread (see
  // file comment).
  // `stream.on_window` fires on the Run() caller's thread with the POOLED estimates, in
  // window order — WindowForecaster rides the merged stream unchanged.
  // `stream.fast_path` applies per lane: kDegrade triggers on the GLOBAL window task
  // count (the same windows degrade at any K), and under kDegrade/kMeanFieldOnly a lane
  // whose sub-log misses a queue answers with a mean-field fallback fit instead of
  // sitting the window out.
  StreamingEstimatorOptions stream;
};

class ShardedStreamingEstimator {
 public:
  // `init_rates` warm-starts every lane's first window (index 0 = lambda); `seed` drives
  // the per-(window, lane) MixSeed discipline above.
  ShardedStreamingEstimator(std::vector<double> init_rates, std::uint64_t seed,
                            const ShardedStreamingOptions& options = {});

  // Drains `stream` to completion and returns the pooled per-window estimate sequence
  // (a merged-tail re-fit replaces the last entry in place, exactly like the plain
  // estimator).
  std::vector<WindowEstimate> Run(TraceStream& stream);

  // Valid after Run.
  const FleetStats& Stats() const { return stats_; }

 private:
  std::vector<double> init_rates_;
  std::uint64_t seed_;
  ShardedStreamingOptions options_;
  FleetStats stats_;
};

}  // namespace qnet

#endif  // QNET_SHARD_SHARDED_STREAMING_H_
