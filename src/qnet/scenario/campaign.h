// Scenario campaigns: named, scripted workloads with ground-truth change labels.
//
// A Campaign is a declarative description of one monitored-stream experiment: a tandem
// network, an arrival rate, a FaultSchedule compiled from the script (arrival-scale
// segments for workload-side changes, service slowdowns for resource-side ones), and
// the ground-truth CampaignEvents — the exact sim times the scripted changes take
// effect, labelled with the AlertKind a detector should raise. Because every campaign
// is a seeded LiveSimStream, the resulting estimate and alert sequences are
// deterministic, which is what lets detection latency and false-positive counts be
// *gated* (bench/perf_detect.cc) instead of merely reported.
//
// The catalog (MakeCampaign / CampaignNames):
//   stationary            — no script; the false-positive control
//   flash-crowd           — 2.5x arrival burst, onset + recovery labelled
//   diurnal-ramp          — staircase arrival curve up and back down
//   partial-failure       — periodic 3x slowdown bursts on one service queue
//   slow-start-recovery   — deep slowdown healing in steps back to nominal
//   bottleneck-migration  — persistent slowdown moving the utilization argmax
//
// Every script starts after a stationary prefix (`quiet_until`) long enough for the
// detectors to warm up and arm — alerts inside the prefix are, by construction, false
// positives. RunCampaign wires the whole loop: LiveSimStream -> StreamingEstimator ->
// ChangeMonitor, then scores alerts against the events (detection latency in windows,
// false-alarm count on the quiet prefix) and records latencies into the
// qnet_detect_latency_windows histogram — the only place ground truth exists.

#ifndef QNET_SCENARIO_CAMPAIGN_H_
#define QNET_SCENARIO_CAMPAIGN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qnet/detect/change_monitor.h"
#include "qnet/model/network.h"
#include "qnet/sim/fault.h"
#include "qnet/stream/live_stream.h"
#include "qnet/stream/streaming_estimator.h"

namespace qnet {

// One scripted ground-truth change point.
struct CampaignEvent {
  AlertKind kind = AlertKind::kRateShift;
  double time = 0.0;  // sim time the change takes effect
  // Affected service queue (0 for arrival-side events, matched against any queue).
  int queue = 0;
  std::string label;
};

struct Campaign {
  std::string name;
  std::string description;
  // Tandem topology: arrival rate + per-service-queue rates (MakeTandemNetwork).
  double arrival_rate = 4.0;
  std::vector<double> service_rates;
  double horizon = 600.0;
  FaultSchedule faults;
  std::vector<CampaignEvent> events;  // in time order
  // No scripted change happens before this time; alerts on windows entirely inside
  // [0, quiet_until) are false positives.
  double quiet_until = 0.0;

  // Number of queues a WindowEstimate carries (lambda slot + service queues).
  int NumQueues() const { return static_cast<int>(service_rates.size()) + 1; }
  QueueingNetwork MakeNetwork() const;
  // LiveSimOptions with `faults` pointing at this campaign's schedule — the campaign
  // must outlive the stream (the usual FaultSchedule lifetime rule).
  LiveSimOptions SimOptions() const;
};

// The catalog. MakeCampaign aborts (QNET_CHECK) on an unknown name.
std::vector<std::string> CampaignNames();
Campaign MakeCampaign(const std::string& name);

struct CampaignRunOptions {
  // 30 s at the catalog's arrival rate 4.0 is ~120 tasks per window — enough data per
  // decision point that ordinary fit wobble stays inside the detectors' sigma floors
  // (the 8-window warm-up then spans 240 s, inside every campaign's 300 s quiet
  // prefix).
  double window_duration = 30.0;
  std::size_t min_tasks_per_window = 8;
  // Campaign scoring only needs per-window point rates, so the sampler-free path is
  // the default; kOff/kWarmStart run the full StEM fit per window.
  FastPathMode fast_path = FastPathMode::kMeanFieldOnly;
  ChangeMonitorOptions monitor;
  std::uint64_t sim_seed = 1234;
  std::uint64_t fit_seed = 99;
};

// How one ground-truth event was (or was not) detected.
struct CampaignEventOutcome {
  CampaignEvent event;
  // First window whose span ends after the event time (where detection could start).
  std::size_t event_window = 0;
  bool detected = false;
  std::size_t detection_window = 0;      // window of the first matching alert
  std::size_t latency_windows = 0;       // detection_window - event_window
};

struct CampaignResult {
  // The estimate sequence with per-window alert masks applied (window_csv-ready).
  std::vector<WindowEstimate> estimates;
  std::vector<Alert> alerts;
  std::vector<CampaignEventOutcome> outcomes;
  // Alerts (other than kDegradedRun, which flags the estimator not the workload) on
  // windows entirely inside the quiet prefix.
  std::size_t false_alarms = 0;

  bool AllDetected() const;
  // Max latency over detected events; undetected events count as `undetected_penalty`.
  std::size_t MaxLatencyWindows(std::size_t undetected_penalty = 1000) const;
};

// Scores an already-produced estimate/alert sequence against the campaign's events
// (takes both by value — they become the result's). Detection latencies are recorded
// into the qnet_detect_latency_windows histogram — the campaign is the only place
// ground truth exists, so this is where that metric is fed.
CampaignResult ScoreCampaign(const Campaign& campaign,
                             std::vector<WindowEstimate> estimates,
                             std::vector<Alert> alerts);

// Runs the campaign end to end (stream -> estimator -> monitor) and scores the alert
// log against the ground-truth events via ScoreCampaign.
CampaignResult RunCampaign(const Campaign& campaign, const CampaignRunOptions& options);

}  // namespace qnet

#endif  // QNET_SCENARIO_CAMPAIGN_H_
