// Online change monitor: turns the per-window estimate stream into typed alerts.
//
// ChangeMonitor consumes the WindowEstimate sequence through the existing
// StreamingEstimatorOptions::on_window hook (Hook() is the adapter, mirroring
// scenario/forecast.h), so it rides the single-lane estimator and the sharded fleet
// unchanged — the fleet's pooled estimates arrive here in window order on the Run()
// caller's thread. Per window it runs:
//
//   * a two-sided CUSUM over the arrival rate           -> kRateShift
//   * (optionally) a BOCPD filter over the arrival rate -> kRateShift
//   * a CUSUM per service queue over its rate estimate  -> kServiceDrift
//   * a CUSUM per service queue over its mean wait      -> kServiceDrift
//   * a hysteresis tracker over the utilization argmax
//     (rho_q = lambda / mu_q, exact for single-visit tandems) -> kBottleneckMigration
//   * an edge trigger on the estimator's degraded flag  -> kDegradedRun
//
// One-way-tap invariant: the monitor is a pure function of the WindowEstimate
// sequence. The pooled sequence is a pure function of the stream, the options and the
// seed at a fixed lane count K (the standing streaming contract), so the alert log and
// per-window masks are too — and nothing here feeds back into sampling or estimation.
//
// Merged-tail semantics: a merged-tail re-fit REPLACES the previous window's estimate
// (see StreamingEstimatorOptions::on_window). The monitor snapshots its full detector
// state before every observation; on a merged-tail arrival it restores the snapshot,
// truncates the alert log to the pre-observation watermark, and re-observes — so the
// final alert sequence depends only on the final estimate sequence. The snapshot is a
// same-shape copy of fixed-size detector state: allocation-free after construction.

#ifndef QNET_DETECT_CHANGE_MONITOR_H_
#define QNET_DETECT_CHANGE_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "qnet/detect/alerts.h"
#include "qnet/detect/bocpd.h"
#include "qnet/detect/cusum.h"
#include "qnet/stream/streaming_estimator.h"

namespace qnet {

struct ChangeMonitorOptions {
  // Detector tuning per signal family. The defaults arm after 8 quiet windows and are
  // calibrated to per-window estimate noise at ~100 tasks/window: sigma floors sized
  // so ordinary fit wobble (roughly 10% on service rates, worse on waits — an 8-window
  // warm-up can underestimate it) stays below 1 sigma, while the scripted campaign
  // shifts (1.6x and up) land many sigma out and trip within a window or two.
  CusumOptions rate_cusum{.min_relative_sigma = 0.08};
  CusumOptions service_cusum{.min_relative_sigma = 0.10};
  // Mean waits amplify utilization noise (W = 1/(mu - lambda) - 1/mu), so the wait
  // channel is a deliberately deaf corroborator: it only speaks when waits move by
  // multiples, which a real slowdown delivers.
  CusumOptions wait_cusum{.threshold = 8.0, .min_relative_sigma = 0.25};
  BocpdOptions rate_bocpd{.min_relative_sigma = 0.08};
  // Run the BOCPD filter alongside the arrival CUSUM (both map to kRateShift; the
  // alert log tells them apart via Alert::detector).
  bool enable_bocpd = true;
  // Monitor per-queue mean waits when the estimates carry them.
  bool monitor_waits = true;
  // Raise kDegradedRun when the degraded flag turns on (edge-triggered, so the
  // all-degraded kMeanFieldOnly mode yields one alert, not one per window). Turn off
  // when degradation is the expected steady state.
  bool alert_on_degraded = true;
  // Bottleneck migration: the new utilization argmax must exceed the incumbent's
  // utilization by this factor for `bottleneck_hold_windows` consecutive windows.
  double bottleneck_margin = 1.1;
  std::size_t bottleneck_hold_windows = 3;
  // Reservations for the per-window mask log and the alert log; growth beyond them is
  // amortized (the allocation-free-per-window gate runs within these bounds).
  std::size_t reserve_windows = 4096;
  std::size_t reserve_alerts = 256;
};

class ChangeMonitor {
 public:
  // `num_queues` must match WindowEstimate::rates (index 0 = lambda).
  ChangeMonitor(int num_queues, const ChangeMonitorOptions& options = ChangeMonitorOptions());

  // Feed one estimate (window order; merged-tail re-fits replace, see file comment).
  void Observe(const WindowEstimate& estimate);

  // Adapter for StreamingEstimatorOptions::on_window (captures `this`; the monitor
  // must outlive the estimator's Run call).
  std::function<void(const WindowEstimate&)> Hook();

  // The alert log, in raise order. Stable across merged-tail replacement.
  const std::vector<Alert>& Alerts() const { return sink_.alerts(); }
  const AlertSink& Sink() const { return sink_; }

  // Windows currently reflected in the monitor state (merged-tail replacement keeps
  // the count; it re-observes the same window index).
  std::size_t WindowsObserved() const { return masks_.size(); }

  // Per-window AlertKind bitmask, index = window emission order.
  const std::vector<std::uint32_t>& AlertMasks() const { return masks_; }

  // Copies the per-window masks into estimates[i].alerts. `estimates` must be the
  // sequence this monitor observed (same length); pairs with trace/window_csv so the
  // masks survive a round-trip.
  void ApplyAlertFlags(std::vector<WindowEstimate>& estimates) const;

  // Current bottleneck queue index (utilization argmax with hysteresis), or -1 before
  // the first window with usable rates.
  int CurrentBottleneck() const { return state_.bottleneck; }

 private:
  struct DetectorState {
    CusumDetector rate_cusum;
    BocpdDetector rate_bocpd;
    // Index by queue (slot 0 unused — queue 0 is the lambda slot).
    std::vector<CusumDetector> service_cusum;
    std::vector<CusumDetector> wait_cusum;
    int bottleneck = -1;
    int candidate = -1;
    std::size_t candidate_streak = 0;
    bool was_degraded = false;
  };

  double ArrivalSignal(const WindowEstimate& estimate) const;
  std::uint32_t RunDetectors(const WindowEstimate& estimate, std::size_t window);

  int num_queues_;
  ChangeMonitorOptions options_;
  DetectorState state_;
  // Snapshot of `state_` before the most recent Observe, plus the alert-log watermark
  // — the merged-tail rewind target.
  DetectorState prev_state_;
  std::size_t prev_alert_count_ = 0;
  AlertSink sink_;
  std::vector<std::uint32_t> masks_;
};

}  // namespace qnet

#endif  // QNET_DETECT_CHANGE_MONITOR_H_
