// Sharded streaming front-end: hash-partitioned multi-lane windowed inference with
// deterministic pooled estimates.
//
// The Run() caller's thread pulls TaskRecords from any TraceStream and hash-partitions
// them across K lanes (LaneRouter over support/task_hash.h). Each lane is an independent
// estimator — record intake, per-window record fold (plus a log build for windows StEM
// fits), and a warm-started windowed fit chain (WindowFitChain). A LaneMerger pools the
// K per-window fits into one WindowEstimate per global window. This is the only
// streaming window loop: the plain StreamingEstimator runs as the single-lane fleet.
//
// Record path: every lane folds each record into its open window's mean-field statistics
// (MeanFieldRecordFold) when it takes it, and only a lane whose windows may reach StEM
// keeps records, for the log build. A sampler-free lane (kMeanFieldOnly) therefore
// takes the stream's record by reference: no copy, no record buffer, no selection or
// re-fold at the close. The router passes the open span's end with each record; a
// record at or past it (possible only with allowed_lateness > 0, or for a lane that
// keeps records, which gets the record that closes a window before the close) is held
// until the span it belongs to opens, and the fold sums responses in the sorted
// window's order, so estimates are bit-identical to folding each window's sorted
// records. A lane that keeps records copies each record once into recycled capacity and
// returns those that leave its windows to a spare pool, so the steady-state record path
// allocates per window, not per task.
//
// One arrangement, for every K and fast-path mode: the router calls each lane's intake
// and, on each close decision, closes every lane in lane order, all on the caller's
// thread. Window closing, the record fold, the mean-field fit, the warm-start plan,
// merging, on_window, and so detection and forecasting, stay there, in window order.
// Only the StEM fit of a closed lane window — StemEstimator::Run over the log the close
// built — runs elsewhere: it is a job on a fit pool (OrderedPool, infer/thread_pool.h)
// of W workers — the caller and W - 1 threads — each with its own StemWorkspace. W is the
// number of CPUs in the calling thread's affinity mask, not an option (under kOff, where
// a lane's fits run one at a time, capped at K + 1, and 1 for a single lane). At W = 1
// the fit runs inline inside the close and no thread starts; at W > 1 up to 2W fits are
// in flight while the caller keeps ingesting, and the caller waits on the oldest when 2W
// are (backpressure, FleetStats::router_blocked_seconds). Finished fits reach the merger
// in (window, lane) order, so the merger's board is the reorder buffer and emission stays
// in window order.
//
// Dependency edge: a plan reads its lane's chain — the latest fit's rates — under kOff
// and for the queues a window's mean-field fit left unfit. While the lane has a fit in
// flight, such a fit names it on the pool, starts once it has finished and reads its
// rates, so a lane's chain of fits runs back to back while the caller ingests ahead. A
// degraded window (it completes the chain) and a merged-tail re-fit (it restarts from the
// replaced fit's input) first collect every fit in flight. Other fits read no chain rate
// and run alongside. So every fit gets a sequential fleet's inputs, bit for bit.
//
// Emission at W > 1: finished fits are collected after each pulled record, so a window
// is emitted before the pull after its fits are collected, at the latest when the 2W-th
// fit after its own is submitted (the in-flight bound), and at the end of the stream.
//
// Window coordination: the router runs one WindowSpanTracker over the GLOBAL entry-time
// sequence, so window spans, counts, and emission indices are bit-identical for ANY lane
// count. Every lane closes window w after taking every record the router routed ahead of
// the decision, and the merger releases window w only when all K lanes' fits of it are
// in: the pooled stream advances as the min over lane progress (an idle lane answers
// immediately and never stalls the fleet).
//
// Determinism contract: lane l's fit of window w is seeded MixSeed(MixSeed(base, w), l)
// (for K >= 2; a single lane elides the lane salt, which is the plain
// StreamingEstimator's MixSeed(base, w)). Seeds, warm starts, window membership, and
// pooling order are pure functions of (stream contents, options, base seed, K) — never of
// thread scheduling or the fit pool's width. Pooled estimates are therefore
// bit-identical across repeated runs and CPU affinity masks for a FIXED K. Across
// DIFFERENT K the estimates are statistically consistent but not bit-identical: each
// lane fits its own hash-thinned sub-stream (the mean-field-flavored decomposition that
// buys horizontal scaling), so K is part of the estimator's statistical definition. The
// merge weighting (lambda sums; service rates and waits task-count-weighted) is
// documented in shard/lane_merger.h.

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
  // No effect: no lane has a queue, and records reach every lane by a direct call on the
  // caller's thread. Kept assignable for callers written against the threaded lanes.
  std::size_t lane_queue_capacity = 1024;
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
  // Window, StEM, lambda-anchoring and on_window options, shared by every lane.
  // `stream.on_window` fires on the Run() caller's thread with the POOLED estimates, in
  // window order — WindowForecaster rides the merged stream unchanged. With fits in
  // flight on the pool (W > 1), a window is emitted once its fits are collected, which
  // may be after later records were pulled (see "Emission at W > 1" above).
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

  // Reads `stream` to its end and returns the pooled per-window estimate sequence
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
