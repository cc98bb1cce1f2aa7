// Streaming windowed StEM: warm-started per-window estimation over a TraceStream.
//
// The estimator pulls TaskRecords from any TraceStream (replay, CSV, live simulator),
// partitions them into watermark-closed event-time windows (WindowSpanTracker, see
// stream/window_assembler.h), and runs a short StEM fit on every closed window
// through the same MoveKernel/sweep-driver core as the batch estimators — windows cannot
// drift from batch sampler behavior. Each window is warm-started from the previous
// window's rate estimate, yielding the rate trajectory the paper's "what happened five
// minutes ago" diagnosis questions consume.
//
// One window loop: StreamingEstimator IS the single-lane sharded fleet
// (shard/sharded_streaming.h) — Run forwards to ShardedStreamingEstimator with
// lanes = 1, and Stats() is read off its FleetStats. Window build, fast-path mode
// selection, degradation, emission and the merged-tail replacement therefore exist
// once, and a single-lane fleet reproduces this estimator by construction.
//
// Determinism contract: window w's StEM run consumes an Rng seeded MixSeed(seed, w) — a
// pure function of the base seed and the window's emission index, never of ingestion
// timing. Combined with the tracker's order-preserving close and the sweep's seed layout
// (infer/sharded_sweep.h), the estimate sequence is a pure function of (stream, options,
// seed) and bit-identical across runs. The warm-start chain and seed discipline live in
// WindowFitChain.
//
// Every window is closed on the caller's thread the moment the record that closes it
// arrives. On a caller pinned to one CPU its StEM fit runs right there and its estimate
// is emitted as soon as the fit returns — before the stream is asked for another
// record. With more CPUs the fit runs on the fleet's fit pool while the caller keeps
// ingesting, and the estimate is emitted, still in window order, once the fit is
// collected (see shard/sharded_streaming.h). Stats() reports ingest throughput, fit lag,
// and the late/dropped/peak-buffer counters.

#ifndef QNET_STREAM_STREAMING_ESTIMATOR_H_
#define QNET_STREAM_STREAMING_ESTIMATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "qnet/infer/meanfield.h"
#include "qnet/infer/stem.h"
#include "qnet/stream/task_record.h"
#include "qnet/stream/window_assembler.h"

namespace qnet {

// Sampler-free fast-path policy (see infer/meanfield.h for the estimator itself).
enum class FastPathMode {
  // StEM only — the historical behavior, preserved bit-exactly.
  kOff,
  // Seed each window's StEM from that window's own mean-field fit (instead of only the
  // previous window's rates); pair with StemOptions::convergence_tol for the early-stop
  // throughput win. Estimates remain StEM estimates.
  kWarmStart,
  // kWarmStart, plus: a window whose task count exceeds degrade_task_budget emits the
  // mean-field fit directly (degraded = true) instead of running StEM. The trigger is
  // the window's task count — a pure function of the stream, never of wall-clock lag —
  // so degraded runs keep the bit-equality determinism contract. A window that misses a
  // queue entirely (StEM cannot fit a rate with no events) also degrades; the absent
  // queue keeps the warm chain's rate.
  kDegrade,
  // Every window emits its mean-field fit; no sampler runs at all (the all-variational
  // mode; also what degraded windows produce). Absent queues keep the chain's rate.
  kMeanFieldOnly,
};

struct WindowEstimate {
  double t0 = 0.0;
  double t1 = 0.0;
  std::size_t tasks = 0;
  // > 0: this estimate replaced a previously reported one — the trailing remainder of
  // the stream (this many tasks) was merged into the last window and it was re-fit.
  std::size_t merged_tail_tasks = 0;
  // True when rates[0] is the window-local arrival rate (anchored to t0; see
  // StreamingEstimatorOptions::window_local_arrival_rate). False: the historical
  // absolute-time lambda iterate, which decays over a long stream — consumers such as
  // WindowForecaster substitute an empirical rate in that case.
  bool window_local_arrival_rate = false;
  // True when this estimate is a mean-field fit rather than a StEM fit (degraded under
  // kDegrade's task budget, or every window under kMeanFieldOnly).
  bool degraded = false;
  // StEM iterations this window's fit actually ran (0 for degraded/mean-field-only
  // estimates); with convergence_tol set, the early-stop savings show up here.
  std::size_t fit_iterations = 0;
  // Bitmask of AlertKind values (detect/alerts.h) a ChangeMonitor raised at this window.
  // The estimators always emit 0 — detection is strictly downstream of estimation — and
  // ChangeMonitor::ApplyAlertFlags annotates a returned sequence after the fact, so the
  // flags persist through the trace/window_csv round-trip.
  std::uint32_t alerts = 0;
  std::vector<double> rates;      // index 0 = lambda
  std::vector<double> mean_wait;  // posterior mean per queue (may be empty)
};

struct StreamingEstimatorOptions {
  WindowAssemblerOptions window;
  StemOptions stem;
  // Anchor each window's StEM lambda iterate to the window start (StemOptions::
  // arrival_time_origin = t0), so rates[0] estimates the window's own arrival rate
  // instead of the absolute-time-anchored iterate that decays as the stream ages.
  // Default off: the historical estimates are preserved bit-exactly.
  bool window_local_arrival_rate = false;
  // Invoked on the Run() caller's thread as each window's estimate completes, in window
  // order — the continuous-forecasting hook (see scenario/forecast.h). A merged-tail
  // re-fit invokes it once more with merged_tail_tasks > 0; such an estimate REPLACES
  // the previous window's, and consumers should replace their derived state the same
  // way. The caller's thread also ingests, so a slow hook delays ingestion, never
  // changes results (the estimate sequence stays bit-identical with or without a hook).
  std::function<void(const WindowEstimate&)> on_window;
  // Mean-field fast path (see FastPathMode). kOff preserves the StEM-only estimate
  // sequence bit-exactly.
  FastPathMode fast_path = FastPathMode::kOff;
  // kDegrade: windows with MORE tasks than this emit the mean-field fit directly.
  std::size_t degrade_task_budget = std::numeric_limits<std::size_t>::max();
  MeanFieldOptions mean_field;
};

struct StreamingStats {
  std::size_t tasks_ingested = 0;
  std::size_t windows_estimated = 0;
  std::size_t late_dropped = 0;
  std::size_t tail_dropped = 0;
  // The single lane's LaneStats::peak_buffered_tasks (shard/fleet_stats.h): 0 under
  // kMeanFieldOnly on an entry-ordered stream without lateness.
  std::size_t peak_buffered_tasks = 0;
  double total_wall_seconds = 0.0;
  double tasks_per_second = 0.0;  // end-to-end sustained ingest rate
  // Longest span between a window's close and its fit's delivery — the fit itself, on
  // the caller's thread (FleetStats::max_merge_lag_seconds of the single-lane fleet this
  // estimator runs as).
  double max_sweep_lag_seconds = 0.0;
  // Windows that emitted a mean-field-only estimate (degraded = true).
  std::size_t degraded_windows = 0;
  // Sum of WindowEstimate::fit_iterations — with convergence_tol set, compare against
  // windows_estimated * StemOptions::iterations for the early-stop savings.
  std::size_t fit_iterations_total = 0;
};

// Warm-started per-window fit bookkeeping of every streaming fleet lane (and so of
// StreamingEstimator, the single-lane fleet): which rates a window's fit starts from
// (the previous window's result; a merged-tail re-fit restarts from the SAME input its
// first fit consumed), which seed it consumes, and which lambda anchoring it applies.
// Every PlanFit is followed by one Complete, in order; the rates a plan reads are those
// of the Completes before it. A fleet whose fits run on a pool may plan a fit before the
// previous one completes: a warm start wholly the window's own mean-field fit reads no
// chain rate, and one that does read the chain takes those rates from the previous fit
// itself, once it has finished (shard/sharded_streaming.h, "Dependency edge").
//
// Seed discipline: window w's fit is seeded
//   MixSeed(base, w)                  — plain estimator / single-lane fleet, and
//   MixSeed(MixSeed(base, w), lane)   — lane `lane` of a multi-lane fleet (salted),
// a pure function of (base, window index, lane), never of timing or scheduling. The
// single-lane fleet elides the lane salt so K = 1 reproduces the plain estimator
// bit-exactly.
class WindowFitChain {
 public:
  struct Plan {
    std::vector<double> warm_start;    // rates the fit starts from (index 0 = lambda)
    std::uint64_t seed = 0;            // seeds the fit's Rng
    double arrival_time_origin = 0.0;  // StemOptions::arrival_time_origin for the fit
  };

  WindowFitChain(std::vector<double> init_rates, std::uint64_t seed,
                 bool window_local_arrival_rate, bool salted = false,
                 std::uint64_t lane = 0)
      : seed_(seed),
        window_local_(window_local_arrival_rate),
        salted_(salted),
        lane_(lane),
        rates_(init_rates),
        prev_input_rates_(std::move(init_rates)) {}

  // Plans the fit of the window with emission index `window_index` starting at t0: its
  // warm start is the latest completed fit's rates. A merged-tail re-fit passes the
  // REPLACED window's index (exactly what WindowSpanTracker emits) and restarts from that
  // window's input, the rates completed before the latest.
  Plan PlanFit(std::size_t window_index, bool merged_tail, double t0);
  void Complete(const std::vector<double>& fitted_rates) {
    std::swap(prev_input_rates_, rates_);
    rates_ = fitted_rates;
  }

  bool WindowLocalArrivalRate() const { return window_local_; }

 private:
  std::uint64_t seed_;
  bool window_local_;
  bool salted_;
  std::uint64_t lane_;
  std::vector<double> rates_;             // latest completed fit (next warm start)
  std::vector<double> prev_input_rates_;  // the completed fit before it (its warm input)
};

class StreamingEstimator {
 public:
  // `init_rates` warm-starts the first window (index 0 = lambda); `seed` drives the
  // MixSeed-per-window discipline above.
  StreamingEstimator(std::vector<double> init_rates, std::uint64_t seed,
                     const StreamingEstimatorOptions& options = {});

  // Reads `stream` to its end and returns the per-window estimate sequence (a
  // merged-tail re-fit replaces the last entry in place; see WindowEstimate).
  std::vector<WindowEstimate> Run(TraceStream& stream);

  // Valid after Run.
  const StreamingStats& Stats() const { return stats_; }

 private:
  std::vector<double> init_rates_;
  std::uint64_t seed_;
  StreamingEstimatorOptions options_;
  StreamingStats stats_;
};

}  // namespace qnet

#endif  // QNET_STREAM_STREAMING_ESTIMATOR_H_
