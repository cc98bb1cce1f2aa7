// Pooling of per-lane window fits into one WindowEstimate per global window.
//
// The merger is the fleet's reorder buffer on the estimation side: the router announces
// every span decision in emission order (ExpectWindow), each lane's fit of it is posted
// (Post), and a window's pooled estimate is released only when ALL K lanes have answered —
// the pooled stream therefore advances as the minimum over lane progress, and no window
// is emitted before every lane's fit of it is in. A lane with zero records in the window
// answers with an empty fit, so idle lanes never stall the fleet. Everything runs on the
// fleet's caller thread: the fleet posts each lane's fit when it has it, in (window,
// lane) order, including the StEM fits it collects from its fit pool
// (shard/sharded_streaming.h).
//
// Pooling discipline (PosteriorSummary::Merge's chain-order discipline, applied to
// lanes): contributions are combined in lane-index order — a pure function of the fits,
// never of which lane answered first — with documented weights:
//   * lambda (rates[0]) SUMS across lanes: each lane observes an independent
//     hash-thinned sub-stream, so the fleet arrival rate is the sum of lane rates. A
//     lane whose sub-log could not be fitted (a queue with no events) contributes its
//     empirical n_lane / (t1 - origin) instead.
//   * service rates (rates[q>0]) and mean waits average across fitted lanes, weighted by
//     lane task counts: every lane estimates the same per-queue parameters, with
//     precision proportional to its share of the data.
//   * a window with exactly one contributing lane copies that lane's fit verbatim —
//     bit-exact, so a single-lane fleet (which is what the plain StreamingEstimator
//     runs as) emits its lane's StEM fit itself, with no 1.0-weighted arithmetic to
//     perturb bits.
// Per-lane fits on disjoint sub-streams are the mean-field-flavored decomposition the
// fleet trades for horizontal scaling: pooled estimates are bit-identical across repeated
// runs and fit-pool widths for a FIXED lane count, and statistically consistent (not
// bit-identical) across different lane counts. See docs/architecture.md.

#ifndef QNET_SHARD_LANE_MERGER_H_
#define QNET_SHARD_LANE_MERGER_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/stopwatch.h"

namespace qnet {

// One lane's answer to one window decision.
struct LaneWindowFit {
  std::size_t tasks = 0;  // lane-local record count in the window
  bool fitted = false;    // a fit produced rates/mean_wait
  bool skipped = false;   // records present but the sub-log missed a queue: no fit
  // The fit is mean-field-only (degraded); the pooled estimate ORs this flag.
  bool degraded = false;
  // StEM iterations the lane's fit actually ran (0 for degraded fits); pooled by SUM.
  std::size_t fit_iterations = 0;
  std::vector<double> rates;
  std::vector<double> mean_wait;
  // Per-queue event counts of the lane's sub-log (empty for empty lane windows). The
  // bias correction reconstructs each queue's TRUE event arrival rate from these sums —
  // counts are structure, exact regardless of how the lane fitted (or skipped).
  std::vector<std::size_t> queue_counts;
};

struct PooledWindow {
  WindowEstimate estimate;
  std::size_t window_index = 0;
  bool replaces_previous = false;  // merged-tail re-close: replaces the last estimate
};

class LaneMerger {
 public:
  // With cross_lane_bias_correction, multi-lane pooled service rates and waits are
  // re-inverted through the mean-field response invariant (infer/meanfield.h:
  // CorrectCrossLaneShare; model fallback when the pool carries no waits): a lane
  // attributes the queueing caused by other lanes' tasks to service, so the pooled
  // service estimate inflates with utilization — the PR-5 documented bias. The
  // single-contributing-lane verbatim path is never corrected, so K = 1 (the plain
  // estimator) is unaffected, and the flag defaults off (pooled estimates preserved
  // bit-exactly).
  LaneMerger(std::size_t lanes, int num_queues, bool window_local_arrival_rate,
             bool cross_lane_bias_correction = false);

  // In emission order: announce a decision every lane will answer.
  void ExpectWindow(const WindowSpanTracker::SpanDecision& decision);

  // Delivers lane `lane`'s fit for its oldest unanswered window. Fits are posted in
  // (window, lane) order: every lane's answer to a window before the next window's.
  void Post(std::size_t lane, LaneWindowFit fit);

  // Pops the next pooled window in emission order; false when the oldest window is still
  // incomplete or none is pending. `block` has no effect: every Post runs on the
  // caller's thread, so there is nothing to wait for (the parameter stays for callers
  // written against the threaded merger).
  bool Pop(PooledWindow& out, bool block = false);

  // Longest span between a window's announcement and its last lane fit.
  double MaxMergeLagSeconds() const { return max_merge_lag_seconds_; }

 private:
  struct PendingWindow {
    WindowSpanTracker::SpanDecision decision;
    Stopwatch since_expected;
    std::vector<LaneWindowFit> fits;
    std::size_t answers = 0;  // fits[0..answers) are in
  };

  WindowEstimate Pool(const PendingWindow& window) const;

  const std::size_t lanes_;
  const int num_queues_;
  const bool window_local_;
  const bool bias_correction_;

  std::deque<PendingWindow> board_;  // emission order
  double max_merge_lag_seconds_ = 0.0;
};

}  // namespace qnet

#endif  // QNET_SHARD_LANE_MERGER_H_
