// Alert taxonomy for the online change-detection layer.
//
// An Alert is a typed, deterministic statement that a detector crossed its decision
// boundary at a specific window of the estimate stream. Alerts carry full provenance —
// the window index within the monitored sequence, the window's [t0, t1) span in sim
// time, the queue the signal belongs to, and the detector statistic that fired — so a
// consumer can trace every alert back to the exact WindowEstimate that caused it.
//
// Determinism contract: alerts are a pure function of the WindowEstimate sequence a
// ChangeMonitor observes. The pooled estimate sequence is a pure function of the
// stream, the options and the seed at a fixed lane count K (the standing streaming
// invariant), so the alert sequence is too. Nothing in this layer feeds back into
// sampling.
//
// AlertKind doubles as a bitmask (1u << kind) so a window's alert set packs into the
// WindowEstimate::alerts field and survives the trace/window_csv round-trip.

#ifndef QNET_DETECT_ALERTS_H_
#define QNET_DETECT_ALERTS_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace qnet {

enum class AlertKind : std::uint8_t {
  kRateShift = 0,         // arrival-rate level change (CUSUM or BOCPD on lambda)
  kServiceDrift,          // service-rate level change at one queue
  kBottleneckMigration,   // utilization argmax moved to a different queue and held
  kDegradedRun,           // estimator emitted a degraded (fallback-path) window
  kNumAlertKinds,
};

inline constexpr std::size_t kNumAlertKinds =
    static_cast<std::size_t>(AlertKind::kNumAlertKinds);

// Bit of AlertKind `kind` in a WindowEstimate::alerts mask.
inline constexpr std::uint32_t AlertBit(AlertKind kind) {
  return 1u << static_cast<std::uint32_t>(kind);
}

enum class DetectorKind : std::uint8_t {
  kCusum = 0,          // two-sided CUSUM over a scalar signal
  kBocpd,              // Bayesian online change-point detection (run-length collapse)
  kBottleneckTracker,  // hysteresis tracker over the utilization argmax
  kDegradeWatch,       // passthrough of the estimator's degraded flag
  kNumDetectorKinds,
};

// Stable short names ("rate_shift", "cusum", ...) for tables, CSV, and logs.
const char* AlertKindName(AlertKind kind);
const char* DetectorKindName(DetectorKind kind);

struct Alert {
  AlertKind kind = AlertKind::kRateShift;
  DetectorKind detector = DetectorKind::kCusum;
  // Index of the triggering window within the monitored estimate sequence (0-based,
  // counting emitted windows; a merged-tail re-emission keeps its window's index).
  std::size_t window = 0;
  double t0 = 0.0;  // triggering window's span in sim time
  double t1 = 0.0;
  // Queue the signal belongs to. Queue 0 is the entry queue; arrival-rate alerts use
  // queue 0, bottleneck migration reports the NEW argmax queue.
  int queue = 0;
  // Signed relative shift of the signal against the detector's baseline,
  // (x - baseline) / |baseline|. Bottleneck migration reports the utilization ratio
  // new_argmax / old_argmax instead.
  double magnitude = 0.0;
  // The detector statistic that crossed the boundary (CUSUM S, BOCPD collapse mass,
  // consecutive-window streak for the bottleneck tracker, 1 for degraded runs).
  double statistic = 0.0;
};

// Append-only alert log with per-kind tallies. Raise() also increments the global
// DetectCounters, so alerts surface through the MetricRegistry exporters without any
// extra plumbing. Capacity is reserved up front; growth beyond the reservation is
// amortized vector growth (setup-sized runs never hit it on the per-window path).
class AlertSink {
 public:
  explicit AlertSink(std::size_t reserve_alerts = 256);

  void Raise(const Alert& alert);

  const std::vector<Alert>& alerts() const { return alerts_; }
  std::size_t Count() const { return alerts_.size(); }
  std::size_t CountOfKind(AlertKind kind) const {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }

  // Rewind to the first `count` alerts (merged-tail re-observation support).
  void TruncateTo(std::size_t count);

  void Clear();

 private:
  std::vector<Alert> alerts_;
  std::size_t kind_counts_[kNumAlertKinds] = {};
};

// Writes an alert log as CSV with a `# alerts=N` meta line and one row per alert:
//   window,kind,detector,queue,t0,t1,magnitude,statistic
// Kind and detector are written as their stable names. 17-digit precision so the
// doubles round-trip bit-exactly.
void WriteAlertsCsv(std::ostream& os, const std::vector<Alert>& alerts);
void WriteAlertsCsvFile(const std::string& path, const std::vector<Alert>& alerts);

}  // namespace qnet

#endif  // QNET_DETECT_ALERTS_H_
