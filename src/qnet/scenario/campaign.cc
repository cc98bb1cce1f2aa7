#include "qnet/scenario/campaign.h"

#include "qnet/model/builders.h"
#include "qnet/support/check.h"
#include "qnet/telemetry/metrics.h"

namespace qnet {

QueueingNetwork Campaign::MakeNetwork() const {
  return MakeTandemNetwork(arrival_rate, service_rates);
}

LiveSimOptions Campaign::SimOptions() const {
  LiveSimOptions options;
  options.horizon = horizon;
  options.arrival_rate = arrival_rate;
  options.faults = faults.Empty() ? nullptr : &faults;
  return options;
}

namespace {

// Shared scaffold: arrival 4.0 into a 10.0 -> 8.0 tandem (utilizations 0.4 / 0.5,
// bottleneck at queue 2), a 300 s stationary prefix — 10 windows at the default 30 s
// duration, past the detectors' 8-window warm-up — then the script.
Campaign BaseCampaign(const std::string& name) {
  Campaign c;
  c.name = name;
  c.arrival_rate = 4.0;
  c.service_rates = {10.0, 8.0};
  c.quiet_until = 300.0;
  return c;
}

Campaign MakeStationary() {
  Campaign c = BaseCampaign("stationary");
  c.description = "no scripted change; every non-degraded alert is a false positive";
  c.horizon = 600.0;
  c.quiet_until = 600.0;
  return c;
}

Campaign MakeFlashCrowd() {
  Campaign c = BaseCampaign("flash-crowd");
  c.description = "2.5x arrival burst over [300, 600); onset and recovery labelled";
  c.horizon = 900.0;
  c.faults.AddArrivalScale(300.0, 600.0, 2.5);
  c.events.push_back({AlertKind::kRateShift, 300.0, 0, "flash crowd onset"});
  c.events.push_back({AlertKind::kRateShift, 600.0, 0, "flash crowd recovery"});
  return c;
}

Campaign MakeDiurnalRamp() {
  Campaign c = BaseCampaign("diurnal-ramp");
  c.description = "staircase arrival curve 1.0 -> 1.6 -> 2.4 -> 1.6 -> 1.0";
  c.horizon = 780.0;
  c.faults.AddArrivalScale(300.0, 420.0, 1.6);
  c.faults.AddArrivalScale(420.0, 540.0, 2.4);
  c.faults.AddArrivalScale(540.0, 660.0, 1.6);
  c.events.push_back({AlertKind::kRateShift, 300.0, 0, "ramp onset"});
  return c;
}

Campaign MakePartialFailure() {
  Campaign c = BaseCampaign("partial-failure");
  c.description = "periodic 3x slowdown bursts on queue 2 (60 s on, 60 s off)";
  c.horizon = 660.0;
  c.faults.AddSlowdown(2, 300.0, 360.0, 3.0);
  c.faults.AddSlowdown(2, 420.0, 480.0, 3.0);
  c.faults.AddSlowdown(2, 540.0, 600.0, 3.0);
  c.events.push_back({AlertKind::kServiceDrift, 300.0, 2, "first failure burst"});
  return c;
}

Campaign MakeSlowStartRecovery() {
  Campaign c = BaseCampaign("slow-start-recovery");
  c.description = "queue 1 slows 3x, heals to 1.8x, then back to nominal";
  c.horizon = 720.0;
  c.faults.AddSlowdown(1, 300.0, 480.0, 3.0);
  c.faults.AddSlowdown(1, 480.0, 600.0, 1.8);
  c.events.push_back({AlertKind::kServiceDrift, 300.0, 1, "slowdown onset"});
  return c;
}

Campaign MakeBottleneckMigration() {
  Campaign c = BaseCampaign("bottleneck-migration");
  c.description = "persistent 2x slowdown on queue 1 moves the utilization argmax";
  c.horizon = 600.0;
  // rho_1: 0.4 -> 0.8 while rho_2 stays 0.5 — the argmax migrates from queue 2 to 1
  // and the system stays stable (no unbounded backlog to drain).
  c.faults.AddSlowdown(1, 300.0, 600.0, 2.0);
  c.events.push_back({AlertKind::kServiceDrift, 300.0, 1, "slowdown onset"});
  c.events.push_back(
      {AlertKind::kBottleneckMigration, 300.0, 1, "bottleneck moves to queue 1"});
  return c;
}

}  // namespace

std::vector<std::string> CampaignNames() {
  return {"stationary",      "flash-crowd",         "diurnal-ramp",
          "partial-failure", "slow-start-recovery", "bottleneck-migration"};
}

Campaign MakeCampaign(const std::string& name) {
  if (name == "stationary") return MakeStationary();
  if (name == "flash-crowd") return MakeFlashCrowd();
  if (name == "diurnal-ramp") return MakeDiurnalRamp();
  if (name == "partial-failure") return MakePartialFailure();
  if (name == "slow-start-recovery") return MakeSlowStartRecovery();
  if (name == "bottleneck-migration") return MakeBottleneckMigration();
  QNET_CHECK(false, "unknown campaign: ", name,
             " (see CampaignNames for the catalog)");
  return Campaign{};
}

bool CampaignResult::AllDetected() const {
  for (const CampaignEventOutcome& o : outcomes) {
    if (!o.detected) {
      return false;
    }
  }
  return true;
}

std::size_t CampaignResult::MaxLatencyWindows(std::size_t undetected_penalty) const {
  std::size_t worst = 0;
  for (const CampaignEventOutcome& o : outcomes) {
    const std::size_t latency = o.detected ? o.latency_windows : undetected_penalty;
    if (latency > worst) {
      worst = latency;
    }
  }
  return worst;
}

CampaignResult ScoreCampaign(const Campaign& campaign,
                             std::vector<WindowEstimate> estimates,
                             std::vector<Alert> alerts) {
  CampaignResult result;
  result.estimates = std::move(estimates);
  result.alerts = std::move(alerts);

  // False positives: non-degraded alerts whose window closed inside the quiet prefix.
  for (const Alert& alert : result.alerts) {
    if (alert.kind != AlertKind::kDegradedRun && alert.t1 <= campaign.quiet_until) {
      ++result.false_alarms;
    }
  }

  // Score each ground-truth event: find the first window that could see it, then the
  // first matching alert at or after that window.
  const DetectCounters& counters = DetectCounters::Get();
  for (const CampaignEvent& event : campaign.events) {
    CampaignEventOutcome outcome;
    outcome.event = event;
    std::size_t event_window = result.estimates.size();
    for (std::size_t w = 0; w < result.estimates.size(); ++w) {
      if (result.estimates[w].t1 > event.time) {
        event_window = w;
        break;
      }
    }
    outcome.event_window = event_window;
    if (event_window < result.estimates.size()) {
      for (const Alert& alert : result.alerts) {
        if (alert.kind != event.kind || alert.window < event_window) {
          continue;
        }
        if (event.queue != 0 && alert.queue != event.queue) {
          continue;
        }
        outcome.detected = true;
        outcome.detection_window = alert.window;
        outcome.latency_windows = alert.window - event_window;
        counters.detection_latency_windows->Record(outcome.latency_windows);
        break;
      }
    }
    result.outcomes.push_back(outcome);
  }
  return result;
}

CampaignResult RunCampaign(const Campaign& campaign,
                           const CampaignRunOptions& options) {
  const QueueingNetwork net = campaign.MakeNetwork();
  LiveSimStream stream(net, campaign.SimOptions(), options.sim_seed);

  ChangeMonitor monitor(campaign.NumQueues(), options.monitor);

  StreamingEstimatorOptions est_options;
  est_options.window.window_duration = options.window_duration;
  est_options.window.min_tasks_per_window = options.min_tasks_per_window;
  est_options.window_local_arrival_rate = true;
  est_options.fast_path = options.fast_path;
  est_options.on_window = monitor.Hook();

  std::vector<double> init_rates(static_cast<std::size_t>(campaign.NumQueues()), 1.0);
  StreamingEstimator estimator(std::move(init_rates), options.fit_seed, est_options);

  std::vector<WindowEstimate> estimates = estimator.Run(stream);
  monitor.ApplyAlertFlags(estimates);
  return ScoreCampaign(campaign, std::move(estimates), monitor.Alerts());
}

}  // namespace qnet
