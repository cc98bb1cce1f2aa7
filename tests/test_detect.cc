// Online change detection: CUSUM/BOCPD unit behavior on synthetic sequences, the
// ChangeMonitor's merged-tail purity and alert plumbing, campaign-driven end-to-end
// detection (latency within budget, zero false alarms on the quiet prefix), and the
// alert bit-equality grid across repeated runs at each fixed lane count K.

#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "qnet/detect/alerts.h"
#include "qnet/detect/bocpd.h"
#include "qnet/detect/change_monitor.h"
#include "qnet/detect/cusum.h"
#include "qnet/scenario/campaign.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/stream/live_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/support/rng.h"
#include "qnet/trace/window_csv.h"

namespace qnet {
namespace {

// Level `mean` with deterministic +/-2% noise (seeded Rng) — the synthetic stand-in
// for a stationary estimate signal.
double Noisy(double mean, Rng& rng) { return mean * (0.98 + 0.04 * rng.Uniform()); }

// --- CUSUM -------------------------------------------------------------------------------

TEST(Cusum, QuietSequenceNeverAlerts) {
  CusumDetector detector;
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    EXPECT_FALSE(detector.Observe(Noisy(10.0, rng)).alert) << "window " << i;
  }
  EXPECT_TRUE(detector.Armed());
}

TEST(Cusum, DetectsUpwardStepWithinAFewWindows) {
  CusumDetector detector;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    ASSERT_FALSE(detector.Observe(Noisy(10.0, rng)).alert);
  }
  int latency = -1;
  CusumDetector::Result hit;
  for (int i = 0; i < 10; ++i) {
    hit = detector.Observe(Noisy(14.0, rng));
    if (hit.alert) {
      latency = i;
      break;
    }
  }
  ASSERT_GE(latency, 0) << "40% upward step never detected";
  EXPECT_LE(latency, 3);
  EXPECT_GT(hit.magnitude, 0.2);   // (x - mu0) / mu0 ~ +0.4
  EXPECT_GT(hit.statistic, 0.0);   // upward shift wins on S+
}

TEST(Cusum, DetectsDownwardStepWithSignedStatistic) {
  CusumDetector detector;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    ASSERT_FALSE(detector.Observe(Noisy(10.0, rng)).alert);
  }
  int latency = -1;
  CusumDetector::Result hit;
  for (int i = 0; i < 10; ++i) {
    hit = detector.Observe(Noisy(6.5, rng));
    if (hit.alert) {
      latency = i;
      break;
    }
  }
  ASSERT_GE(latency, 0);
  EXPECT_LE(latency, 3);
  EXPECT_LT(hit.magnitude, -0.2);
  EXPECT_LT(hit.statistic, 0.0);  // downward shift wins on S-
}

TEST(Cusum, RebaselinesAfterAlertAndCatchesTheRecovery) {
  CusumDetector detector;
  Rng rng(11);
  for (int i = 0; i < 12; ++i) {
    ASSERT_FALSE(detector.Observe(Noisy(10.0, rng)).alert);
  }
  // Shift up; one alert, then quiet at the new level (the detector re-baselines).
  int alerts = 0;
  for (int i = 0; i < 30; ++i) {
    if (detector.Observe(Noisy(14.0, rng)).alert) {
      ++alerts;
    }
  }
  EXPECT_EQ(alerts, 1);
  // Recovery back to the original level is a fresh (downward) shift.
  int recovery_alerts = 0;
  for (int i = 0; i < 30; ++i) {
    const CusumDetector::Result r = detector.Observe(Noisy(10.0, rng));
    if (r.alert) {
      ++recovery_alerts;
      EXPECT_LT(r.magnitude, 0.0);
    }
  }
  EXPECT_EQ(recovery_alerts, 1);
}

TEST(Cusum, GradualRampStillTrips) {
  // A slow drift (1% of the level per window) accumulates in the sums even though no
  // single window is anomalous.
  CusumDetector detector;
  Rng rng(13);
  for (int i = 0; i < 12; ++i) {
    ASSERT_FALSE(detector.Observe(Noisy(10.0, rng)).alert);
  }
  bool detected = false;
  double level = 10.0;
  for (int i = 0; i < 60 && !detected; ++i) {
    level *= 1.01;
    detected = detector.Observe(Noisy(level, rng)).alert;
  }
  EXPECT_TRUE(detected);
}

// --- BOCPD -------------------------------------------------------------------------------

TEST(Bocpd, QuietSequenceNeverAlerts) {
  BocpdDetector detector;
  Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    EXPECT_FALSE(detector.Observe(Noisy(10.0, rng)).alert) << "window " << i;
  }
  EXPECT_TRUE(detector.Armed());
  EXPECT_LT(detector.CollapseMass(), 0.5);
}

TEST(Bocpd, DetectsStepViaRunLengthCollapse) {
  BocpdDetector detector;
  Rng rng(19);
  for (int i = 0; i < 30; ++i) {
    ASSERT_FALSE(detector.Observe(Noisy(10.0, rng)).alert) << "window " << i;
  }
  int latency = -1;
  BocpdDetector::Result hit;
  for (int i = 0; i < 10; ++i) {
    hit = detector.Observe(Noisy(14.0, rng));
    if (hit.alert) {
      latency = i;
      break;
    }
  }
  ASSERT_GE(latency, 0) << "40% step never collapsed the run-length posterior";
  EXPECT_LE(latency, 4);
  EXPECT_GT(hit.statistic, 0.7);  // the collapse mass that fired
  EXPECT_GT(hit.magnitude, 0.2);
}

TEST(Bocpd, ReAdaptsAndDetectsASecondChange) {
  // No reset-on-alert: the filter re-adapts to the post-change level by itself, so a
  // later recovery is a fresh collapse.
  BocpdOptions options;
  BocpdDetector detector(options);
  Rng rng(23);
  for (int i = 0; i < 30; ++i) {
    ASSERT_FALSE(detector.Observe(Noisy(10.0, rng)).alert);
  }
  int first = 0;
  for (int i = 0; i < 40; ++i) {
    if (detector.Observe(Noisy(15.0, rng)).alert) {
      ++first;
    }
  }
  EXPECT_GE(first, 1);
  int second = 0;
  for (int i = 0; i < 40; ++i) {
    if (detector.Observe(Noisy(10.0, rng)).alert) {
      ++second;
    }
  }
  EXPECT_GE(second, 1);
}

// --- AlertSink ---------------------------------------------------------------------------

TEST(AlertSink, CountsByKindAndTruncates) {
  AlertSink sink(4);
  Alert a;
  a.kind = AlertKind::kRateShift;
  sink.Raise(a);
  a.kind = AlertKind::kServiceDrift;
  sink.Raise(a);
  a.kind = AlertKind::kServiceDrift;
  sink.Raise(a);
  EXPECT_EQ(sink.Count(), 3u);
  EXPECT_EQ(sink.CountOfKind(AlertKind::kRateShift), 1u);
  EXPECT_EQ(sink.CountOfKind(AlertKind::kServiceDrift), 2u);
  sink.TruncateTo(1);
  EXPECT_EQ(sink.Count(), 1u);
  EXPECT_EQ(sink.CountOfKind(AlertKind::kServiceDrift), 0u);
  EXPECT_EQ(sink.CountOfKind(AlertKind::kRateShift), 1u);
}

TEST(AlertSink, CsvCarriesNamesAndProvenance) {
  AlertSink sink;
  Alert a;
  a.kind = AlertKind::kBottleneckMigration;
  a.detector = DetectorKind::kBottleneckTracker;
  a.window = 12;
  a.t0 = 240.0;
  a.t1 = 260.0;
  a.queue = 2;
  a.magnitude = 1.5;
  a.statistic = 3.0;
  sink.Raise(a);
  std::ostringstream os;
  WriteAlertsCsv(os, sink.alerts());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("# alerts=1"), std::string::npos);
  EXPECT_NE(csv.find("window,kind,detector,queue,t0,t1,magnitude,statistic"),
            std::string::npos);
  EXPECT_NE(csv.find("12,bottleneck_migration,bottleneck_tracker,2,240,260,1.5,3"),
            std::string::npos);
}

// --- ChangeMonitor -----------------------------------------------------------------------

// Synthetic estimate: lambda + per-queue service rates, 20 s window at index w.
WindowEstimate MakeEstimate(std::size_t w, double lambda, std::vector<double> mu) {
  WindowEstimate e;
  e.t0 = 20.0 * static_cast<double>(w);
  e.t1 = e.t0 + 20.0;
  e.tasks = 80;
  e.window_local_arrival_rate = true;
  e.rates.push_back(lambda);
  for (const double m : mu) {
    e.rates.push_back(m);
  }
  return e;
}

TEST(ChangeMonitor, FlagsARateShiftAndAppliesMasks) {
  ChangeMonitor monitor(3);
  Rng rng(29);
  std::vector<WindowEstimate> estimates;
  for (std::size_t w = 0; w < 12; ++w) {
    estimates.push_back(
        MakeEstimate(w, Noisy(4.0, rng), {Noisy(10.0, rng), Noisy(8.0, rng)}));
  }
  for (std::size_t w = 12; w < 18; ++w) {
    estimates.push_back(
        MakeEstimate(w, Noisy(8.0, rng), {Noisy(10.0, rng), Noisy(8.0, rng)}));
  }
  for (const WindowEstimate& e : estimates) {
    monitor.Observe(e);
  }
  ASSERT_EQ(monitor.WindowsObserved(), estimates.size());
  ASSERT_GE(monitor.Alerts().size(), 1u);
  const Alert& first = monitor.Alerts().front();
  EXPECT_EQ(first.kind, AlertKind::kRateShift);
  EXPECT_GE(first.window, 12u);
  EXPECT_LE(first.window, 14u);
  EXPECT_EQ(first.queue, 0);
  EXPECT_EQ(first.t0, estimates[first.window].t0);

  monitor.ApplyAlertFlags(estimates);
  EXPECT_NE(estimates[first.window].alerts & AlertBit(AlertKind::kRateShift), 0u);
  for (std::size_t w = 0; w < 12; ++w) {
    EXPECT_EQ(estimates[w].alerts, 0u) << "window " << w;
  }
}

TEST(ChangeMonitor, ServiceDriftCarriesTheQueueIndex) {
  ChangeMonitor monitor(3);
  Rng rng(31);
  for (std::size_t w = 0; w < 12; ++w) {
    monitor.Observe(
        MakeEstimate(w, Noisy(4.0, rng), {Noisy(10.0, rng), Noisy(8.0, rng)}));
  }
  // Queue 1 slows 3x; queue 2 and lambda stay put.
  for (std::size_t w = 12; w < 18; ++w) {
    monitor.Observe(
        MakeEstimate(w, Noisy(4.0, rng), {Noisy(10.0 / 3.0, rng), Noisy(8.0, rng)}));
  }
  ASSERT_GE(monitor.Alerts().size(), 1u);
  bool saw_service_drift = false;
  for (const Alert& alert : monitor.Alerts()) {
    if (alert.kind == AlertKind::kServiceDrift) {
      saw_service_drift = true;
      EXPECT_EQ(alert.queue, 1);
      EXPECT_LT(alert.magnitude, 0.0);  // the rate dropped
    }
  }
  EXPECT_TRUE(saw_service_drift);
}

TEST(ChangeMonitor, BottleneckMigrationNeedsMarginAndHold) {
  ChangeMonitorOptions options;
  options.bottleneck_hold_windows = 3;
  ChangeMonitor monitor(3, options);
  Rng rng(37);
  // rho = {0.4, 0.5}: queue 2 is the incumbent bottleneck.
  std::size_t w = 0;
  for (; w < 12; ++w) {
    monitor.Observe(
        MakeEstimate(w, Noisy(4.0, rng), {Noisy(10.0, rng), Noisy(8.0, rng)}));
  }
  EXPECT_EQ(monitor.CurrentBottleneck(), 2);
  EXPECT_EQ(monitor.Sink().CountOfKind(AlertKind::kBottleneckMigration), 0u);
  // Queue 1 slows 2x: rho_1 = 0.8 > 1.1 * rho_2. The migration alert must wait for the
  // hold streak (3 consecutive windows), then fire exactly once.
  std::size_t migration_alerts_after[6];
  for (std::size_t i = 0; i < 6; ++i, ++w) {
    monitor.Observe(
        MakeEstimate(w, Noisy(4.0, rng), {Noisy(5.0, rng), Noisy(8.0, rng)}));
    migration_alerts_after[i] = monitor.Sink().CountOfKind(AlertKind::kBottleneckMigration);
  }
  EXPECT_EQ(migration_alerts_after[0], 0u);
  EXPECT_EQ(migration_alerts_after[1], 0u);
  EXPECT_EQ(migration_alerts_after[2], 1u);
  EXPECT_EQ(migration_alerts_after[5], 1u);
  EXPECT_EQ(monitor.CurrentBottleneck(), 1);
  bool found = false;
  for (const Alert& alert : monitor.Alerts()) {
    if (alert.kind == AlertKind::kBottleneckMigration) {
      found = true;
      EXPECT_EQ(alert.queue, 1);
      EXPECT_GT(alert.magnitude, 1.1);
      EXPECT_EQ(alert.statistic, 3.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ChangeMonitor, DegradedFlagIsEdgeTriggered) {
  ChangeMonitor monitor(3);
  Rng rng(41);
  for (std::size_t w = 0; w < 10; ++w) {
    WindowEstimate e =
        MakeEstimate(w, Noisy(4.0, rng), {Noisy(10.0, rng), Noisy(8.0, rng)});
    e.degraded = w >= 3 && w <= 5;  // one degraded episode
    monitor.Observe(e);
  }
  EXPECT_EQ(monitor.Sink().CountOfKind(AlertKind::kDegradedRun), 1u);
  EXPECT_EQ(monitor.Alerts().front().kind, AlertKind::kDegradedRun);
  EXPECT_EQ(monitor.Alerts().front().window, 3u);
}

TEST(ChangeMonitor, MergedTailReplacementIsAPureFunctionOfTheFinalSequence) {
  // Monitor A sees [e0..e16, X, X'] where X' is a merged-tail re-fit REPLACING X with
  // different values; monitor B sees [e0..e16, Y] where Y carries X''s values but as a
  // plain emission. The final alert logs and masks must be identical — the rewind
  // erases every trace of X.
  Rng rng(43);
  std::vector<WindowEstimate> prefix;
  for (std::size_t w = 0; w < 17; ++w) {
    prefix.push_back(
        MakeEstimate(w, Noisy(4.0, rng), {Noisy(10.0, rng), Noisy(8.0, rng)}));
  }
  // X: a wild spike that WOULD alert; X': the tail re-fit walks it back to quiet.
  WindowEstimate spike = MakeEstimate(17, 9.0, {10.0, 8.0});
  WindowEstimate refit = MakeEstimate(17, 4.01, {10.0, 8.0});
  refit.merged_tail_tasks = 30;
  WindowEstimate plain = refit;
  plain.merged_tail_tasks = 0;

  ChangeMonitor with_tail(3);
  for (const WindowEstimate& e : prefix) {
    with_tail.Observe(e);
  }
  with_tail.Observe(spike);
  EXPECT_GE(with_tail.Alerts().size(), 1u);  // the spike alerted...
  with_tail.Observe(refit);                  // ...and the re-fit must erase it

  ChangeMonitor without_tail(3);
  for (const WindowEstimate& e : prefix) {
    without_tail.Observe(e);
  }
  without_tail.Observe(plain);

  EXPECT_EQ(with_tail.WindowsObserved(), without_tail.WindowsObserved());
  ASSERT_EQ(with_tail.Alerts().size(), without_tail.Alerts().size());
  for (std::size_t i = 0; i < with_tail.Alerts().size(); ++i) {
    const Alert& a = with_tail.Alerts()[i];
    const Alert& b = without_tail.Alerts()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.magnitude, b.magnitude);
    EXPECT_EQ(a.statistic, b.statistic);
  }
  EXPECT_EQ(with_tail.AlertMasks(), without_tail.AlertMasks());
}

TEST(ChangeMonitor, AlertFlagsSurviveTheWindowCsvRoundTrip) {
  ChangeMonitor monitor(3);
  Rng rng(47);
  std::vector<WindowEstimate> estimates;
  for (std::size_t w = 0; w < 12; ++w) {
    estimates.push_back(
        MakeEstimate(w, Noisy(4.0, rng), {Noisy(10.0, rng), Noisy(8.0, rng)}));
  }
  for (std::size_t w = 12; w < 17; ++w) {
    estimates.push_back(
        MakeEstimate(w, Noisy(7.0, rng), {Noisy(10.0, rng), Noisy(8.0, rng)}));
  }
  for (const WindowEstimate& e : estimates) {
    monitor.Observe(e);
  }
  monitor.ApplyAlertFlags(estimates);
  ASSERT_GE(monitor.Alerts().size(), 1u);

  std::stringstream ss;
  WriteWindowEstimates(ss, estimates, 3);
  const std::vector<WindowEstimate> reread = ReadWindowEstimates(ss);
  ASSERT_EQ(reread.size(), estimates.size());
  for (std::size_t w = 0; w < estimates.size(); ++w) {
    EXPECT_EQ(reread[w].alerts, estimates[w].alerts) << "window " << w;
  }
}

// --- Campaigns: end-to-end detection ------------------------------------------------------

TEST(Campaign, CatalogIsCompleteAndSelfConsistent) {
  const std::vector<std::string> names = CampaignNames();
  ASSERT_EQ(names.size(), 6u);
  for (const std::string& name : names) {
    const Campaign c = MakeCampaign(name);
    EXPECT_EQ(c.name, name);
    EXPECT_EQ(c.NumQueues(), 3);
    EXPECT_GT(c.horizon, 0.0);
    EXPECT_LE(c.quiet_until, c.horizon);
    for (const CampaignEvent& event : c.events) {
      EXPECT_GE(event.time, c.quiet_until) << name;
      EXPECT_LT(event.time, c.horizon + 1.0) << name;
    }
    if (name == "stationary") {
      EXPECT_TRUE(c.events.empty());
      EXPECT_TRUE(c.faults.Empty());
    } else {
      EXPECT_FALSE(c.events.empty());
      EXPECT_FALSE(c.faults.Empty());
    }
  }
}

TEST(Campaign, StationaryCampaignRaisesNoWorkloadAlerts) {
  const Campaign c = MakeCampaign("stationary");
  const CampaignResult result = RunCampaign(c, CampaignRunOptions());
  EXPECT_EQ(result.false_alarms, 0u);
  for (const Alert& alert : result.alerts) {
    // Under kMeanFieldOnly one degraded-edge alert at window 0 is expected; nothing
    // else may fire on a stationary stream.
    EXPECT_EQ(alert.kind, AlertKind::kDegradedRun)
        << AlertKindName(alert.kind) << " via " << DetectorKindName(alert.detector)
        << " at window " << alert.window << " queue " << alert.queue << " magnitude "
        << alert.magnitude << " statistic " << alert.statistic;
  }
  // 600 s horizon at the default 30 s window = ~20 windows.
  EXPECT_GE(result.estimates.size(), 18u);
}

TEST(Campaign, ScriptedCampaignsDetectEveryEventWithinBudgetAndStayQuietBefore) {
  for (const std::string& name : CampaignNames()) {
    if (name == "stationary") {
      continue;
    }
    const Campaign c = MakeCampaign(name);
    const CampaignResult result = RunCampaign(c, CampaignRunOptions());
    EXPECT_EQ(result.false_alarms, 0u) << name;
    EXPECT_TRUE(result.AllDetected()) << name;
    EXPECT_LE(result.MaxLatencyWindows(), 6u) << name;
    for (const CampaignEventOutcome& outcome : result.outcomes) {
      EXPECT_TRUE(outcome.detected) << name << ": " << outcome.event.label;
    }
  }
}

TEST(Campaign, ResultEstimatesCarryTheAlertMasks) {
  const Campaign c = MakeCampaign("flash-crowd");
  const CampaignResult result = RunCampaign(c, CampaignRunOptions());
  ASSERT_TRUE(result.AllDetected());
  std::size_t flagged = 0;
  for (const WindowEstimate& e : result.estimates) {
    if ((e.alerts & AlertBit(AlertKind::kRateShift)) != 0) {
      ++flagged;
    }
  }
  EXPECT_GE(flagged, 2u);  // onset + recovery
}

// --- Alert bit-equality across the execution grid ----------------------------------------

struct MonitoredRun {
  std::vector<Alert> alerts;
  std::vector<std::uint32_t> masks;
  std::size_t windows = 0;
};

// Short scripted campaign tuned for the StEM-path grid: a 2x arrival burst at t = 75
// with detectors armed after 2 windows.
Campaign GridCampaign() {
  Campaign c;
  c.name = "grid";
  c.arrival_rate = 4.0;
  c.service_rates = {8.0, 9.0};
  c.horizon = 150.0;
  c.quiet_until = 75.0;
  c.faults.AddArrivalScale(75.0, 150.0, 2.0);
  c.events.push_back({AlertKind::kRateShift, 75.0, 0, "burst"});
  return c;
}

ChangeMonitorOptions GridMonitorOptions() {
  ChangeMonitorOptions options;
  options.rate_cusum.warmup_windows = 2;
  options.service_cusum.warmup_windows = 2;
  options.wait_cusum.warmup_windows = 2;
  options.rate_bocpd.warmup_windows = 2;
  return options;
}

MonitoredRun RunMonitoredFleet(std::size_t lanes) {
  const Campaign campaign = GridCampaign();
  const QueueingNetwork net = campaign.MakeNetwork();
  LiveSimStream stream(net, campaign.SimOptions(), 61);

  ChangeMonitor monitor(campaign.NumQueues(), GridMonitorOptions());

  ShardedStreamingOptions options;
  options.lanes = lanes;
  options.stream.window.window_duration = 15.0;
  options.stream.stem.iterations = 30;
  options.stream.stem.burn_in = 10;
  options.stream.stem.wait_sweeps = 5;
  options.stream.window_local_arrival_rate = true;
  options.stream.on_window = monitor.Hook();

  ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, 71, options);
  fleet.Run(stream);

  MonitoredRun run;
  run.alerts = monitor.Alerts();
  run.masks = monitor.AlertMasks();
  run.windows = monitor.WindowsObserved();
  return run;
}

void ExpectAlertsIdentical(const MonitoredRun& a, const MonitoredRun& b) {
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.masks, b.masks);
  ASSERT_EQ(a.alerts.size(), b.alerts.size());
  for (std::size_t i = 0; i < a.alerts.size(); ++i) {
    EXPECT_EQ(a.alerts[i].kind, b.alerts[i].kind) << "alert " << i;
    EXPECT_EQ(a.alerts[i].detector, b.alerts[i].detector) << "alert " << i;
    EXPECT_EQ(a.alerts[i].window, b.alerts[i].window) << "alert " << i;
    EXPECT_EQ(a.alerts[i].queue, b.alerts[i].queue) << "alert " << i;
    EXPECT_EQ(a.alerts[i].t0, b.alerts[i].t0) << "alert " << i;
    EXPECT_EQ(a.alerts[i].t1, b.alerts[i].t1) << "alert " << i;
    EXPECT_EQ(a.alerts[i].magnitude, b.alerts[i].magnitude) << "alert " << i;
    EXPECT_EQ(a.alerts[i].statistic, b.alerts[i].statistic) << "alert " << i;
  }
}

TEST(CampaignAlerts, BitIdenticalAcrossRepeatedRunsAtFixedK) {
  // The acceptance grid: for each K in {1,2,4}, the full alert log (kinds, windows,
  // magnitudes, statistics — every bit) must be identical run to run, with the StEM
  // lanes on the caller's thread at K = 1 and on their own threads at K = 2/4. The
  // detectors consume the pooled estimate sequence, which is a pure function of the
  // stream at a fixed K, so the alerts must be too.
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    const MonitoredRun reference = RunMonitoredFleet(lanes);
    EXPECT_GE(reference.windows, 8u) << "lanes=" << lanes;
    // The grid is only meaningful if the campaign actually alerts.
    EXPECT_GE(reference.alerts.size(), 1u) << "lanes=" << lanes;
    ExpectAlertsIdentical(reference, RunMonitoredFleet(lanes));
  }
}

}  // namespace
}  // namespace qnet
