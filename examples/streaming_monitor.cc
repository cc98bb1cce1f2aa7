// Streaming monitor: live per-window service-rate tracking over an endless-style trace,
// optionally sharded across a multi-lane inference fleet.
//
// A live incremental simulation of a tandem network suffers a mid-stream slowdown at its
// second stage. Instead of collecting the full trace and running batch inference, the
// stream flows task-by-task through the sharded streaming front-end: a router
// hash-partitions tasks across --lanes K assembler/estimator lanes, each lane fits
// warm-started StEM per window on its sub-stream (the fits run on a pool as wide as the
// process's CPU mask), and the lane merger pools the fits into one estimate per window — the "what is happening right now?" monitoring loop the
// paper's Section 6 sketches, scaled horizontally. With --lanes 1 the fleet is the plain
// StreamingEstimator (which runs as the single-lane fleet). Memory stays bounded by one window
// per lane regardless of how long the stream runs.
//
// A WindowForecaster rides the merger's on_window hook: after every pooled window it
// re-evaluates a small what-if grid at that window's rates (window-local lambda
// anchoring keeps the arrival rate honest deep into the stream), so the monitor also
// answers "where would latency land if load spiked right now?" continuously — watch the
// 2x-load forecast blow up after the fault while the 1x forecast stays moderate.
//
// With --lanes K > 1 the monitor additionally re-runs the identical stream single-lane
// and reports the largest service-time deviation between the pooled K-lane estimates and
// the single-lane reference: window spans are bit-identical by construction (the span
// tracker is global), and the fits agree statistically (each lane sees a hash-thinned
// sub-stream; see docs/architecture.md for the decomposition's bias regime).
//
// The mean-field fast path is selectable with --fast-path:
//   off      sampler path only (the default; bit-identical to pre-fast-path behavior);
//   warm     each window's StEM starts from the window's own mean-field fit and stops
//            early once its post-burn-in rate average stabilizes — same estimates,
//            fewer sweeps (watch the "iters" column and the savings line);
//   degrade  windows whose GLOBAL task count exceeds --degrade-budget skip the sampler
//            and emit the mean-field fit flagged degraded (overload shedding that keeps
//            estimates flowing instead of falling behind);
//   only     every window is mean-field only — the all-variational mode (sampler-free,
//            deterministic regardless of seed).
//
// The lane merger's cross-lane bias correction (on by default; --bias-correction 0 to
// see the raw pooling) re-inverts each pooled service rate from the thinning-invariant
// mean response, collapsing the single-lane cross-check deviation that used to
// concentrate in highly utilized windows.
//
// A ChangeMonitor (src/qnet/detect/) taps the same pooled on_window hook: per window it
// runs the full detector bank (arrival CUSUM + BOCPD, per-queue service and wait CUSUMs,
// the bottleneck-migration tracker, the degraded-run edge) and the run ends with a live
// alert feed table. --alerts-out FILE archives the alert log as CSV.
//
// --campaign NAME swaps the ad-hoc fault script for a named scenario campaign
// (src/qnet/scenario/campaign.h: stationary, flash-crowd, diurnal-ramp, partial-failure,
// slow-start-recovery, bottleneck-migration). Campaigns carry ground-truth change
// labels, so the run ends with a scorecard: detection latency per labelled event and
// the false-alarm count on the quiet prefix — the same numbers bench/perf_detect.cc
// gates in CI.
//
// Telemetry surfaces (the unified registry/timeline layer, src/qnet/telemetry/):
//   --metrics-out FILE   write the end-of-run metrics snapshot — Prometheus text
//                        exposition, or stable-ordered JSON when FILE ends in .json
//   --trace-out FILE     write a Chrome trace-event JSON of every captured span;
//                        loads directly in Perfetto / chrome://tracing
//   --trace-level N      span detail (1 pipeline stages, 2 + lane queue & sweep
//                        internals, 3 + per-tile; default 1)
// and the end-of-run stage-latency table (p50/p95/max per pipeline stage) is read
// straight from the registry's stage histograms.
//
// Usage: streaming_monitor [--tasks 3000] [--rate 4] [--window 30] [--fraction 0.4]
//                          [--seed 1] [--lanes 2] [--report windows.csv]
//                          [--fast-path off|warm|degrade|only] [--degrade-budget N]
//                          [--bias-correction 1] [--metrics-out m.prom|m.json]
//                          [--trace-out trace.json] [--trace-level 1]
//                          [--campaign flash-crowd] [--alerts-out alerts.csv]

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "qnet/detect/change_monitor.h"
#include "qnet/model/builders.h"
#include "qnet/scenario/campaign.h"
#include "qnet/scenario/forecast.h"
#include "qnet/scenario/scenario_engine.h"
#include "qnet/scenario/scenario_spec.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/sim/fault.h"
#include "qnet/stream/live_stream.h"
#include "qnet/support/flags.h"
#include "qnet/telemetry/export.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"
#include "qnet/trace/table.h"
#include "qnet/trace/window_csv.h"

int main(int argc, char** argv) {
  const qnet::Flags flags(argc, argv);
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 3000));
  const double window = flags.GetDouble("window", 30.0);
  const double fraction = flags.GetDouble("fraction", 0.4);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const auto lanes = static_cast<std::size_t>(flags.GetInt("lanes", 2));
  const std::string fast_path = flags.GetString("fast-path", "off");
  qnet::Timeline::SetLevel(flags.GetInt("trace-level", 1));

  // --campaign swaps the ad-hoc fault script below for a named ground-truth scenario
  // (the campaign owns the topology, horizon, and FaultSchedule).
  const bool campaign_mode = flags.Has("campaign");
  const qnet::Campaign campaign =
      campaign_mode ? qnet::MakeCampaign(flags.GetString("campaign", "flash-crowd"))
                    : qnet::Campaign{};
  const double rate =
      campaign_mode ? campaign.arrival_rate : flags.GetDouble("rate", 4.0);
  // Default budget: the expected per-window task count, so Poisson fluctuation pushes
  // roughly the busier half of the windows over it under --fast-path degrade.
  const auto degrade_budget = static_cast<std::size_t>(
      flags.GetInt("degrade-budget", static_cast<int>(rate * window)));

  // Tandem line; stage 2 degrades 3x starting halfway through the stream (20/s -> 6.7/s,
  // still above the arrival rate so the queue stays stable and the estimate stays crisp).
  const qnet::QueueingNetwork net =
      campaign_mode ? campaign.MakeNetwork() : qnet::MakeTandemNetwork(rate, {10.0, 20.0});
  const double fault_at = static_cast<double>(tasks) / rate / 2.0;
  qnet::FaultSchedule faults;
  faults.AddSlowdown(2, fault_at, 1.0e12, 3.0);

  qnet::LiveSimOptions sim_options;
  if (campaign_mode) {
    sim_options = campaign.SimOptions();
  } else {
    sim_options.max_tasks = tasks;
    sim_options.arrival_rate = rate;
    sim_options.faults = &faults;
  }
  sim_options.observed_fraction = fraction;

  qnet::ShardedStreamingOptions options;
  options.lanes = lanes;
  options.stream.window.window_duration = window;
  options.stream.stem.iterations = 60;
  options.stream.stem.burn_in = 20;
  options.stream.stem.wait_sweeps = 20;
  // Anchor each window's lambda to its own span so the forecast load stays honest no
  // matter how far the stream runs from t = 0.
  options.stream.window_local_arrival_rate = true;
  // Correct pooled service rates for the queueing a lane's thinned sub-stream cannot
  // see (a no-op at K = 1, where pooling is verbatim).
  options.cross_lane_bias_correction = flags.GetInt("bias-correction", 1) != 0;

  if (fast_path == "warm") {
    options.stream.fast_path = qnet::FastPathMode::kWarmStart;
    options.stream.stem.convergence_tol = 0.05;
  } else if (fast_path == "degrade") {
    options.stream.fast_path = qnet::FastPathMode::kDegrade;
    options.stream.degrade_task_budget = degrade_budget;
  } else if (fast_path == "only") {
    options.stream.fast_path = qnet::FastPathMode::kMeanFieldOnly;
  } else if (fast_path != "off") {
    std::cerr << "unknown --fast-path mode '" << fast_path
              << "' (expected off|warm|degrade|only)\n";
    return 1;
  }

  // Continuous capacity forecast: after each pooled window, evaluate "now" and "2x load"
  // scenarios at that window's rates (point draws — per-window estimates carry no bands).
  qnet::ScenarioAxis load;
  load.kind = qnet::AxisKind::kArrivalScale;
  load.name = "load";
  load.values = {1.0, 2.0};
  qnet::ScenarioEngineOptions forecast_options;
  forecast_options.max_draws = 1;
  forecast_options.tasks_per_draw = 400;
  qnet::WindowForecaster forecaster(net, qnet::ScenarioGrid({load}), forecast_options, seed);

  // The change monitor taps the same pooled window hook as the forecaster: both are
  // pure consumers of the estimate sequence, chained on the merge thread in order.
  qnet::ChangeMonitor monitor(net.NumQueues());
  const auto forecast_hook = forecaster.Hook();
  const auto monitor_hook = monitor.Hook();
  options.stream.on_window = [&monitor_hook,
                              &forecast_hook](const qnet::WindowEstimate& e) {
    monitor_hook(e);
    forecast_hook(e);
  };

  std::vector<double> init(static_cast<std::size_t>(net.NumQueues()), 1.0);
  init[0] = rate;
  qnet::LiveSimStream stream(net, sim_options, seed);
  qnet::ShardedStreamingEstimator fleet(init, seed, options);
  auto estimates = fleet.Run(stream);
  monitor.ApplyAlertFlags(estimates);
  const qnet::FleetStats& stats = fleet.Stats();

  std::cout << "Streamed " << stats.tasks_ingested << " tasks across " << stats.lanes
            << " lane(s) in " << qnet::FormatDouble(stats.total_wall_seconds) << " s ("
            << qnet::FormatDouble(stats.tasks_per_second / 1e3)
            << "k tasks/s end-to-end, max merge lag "
            << qnet::FormatDouble(stats.max_merge_lag_seconds * 1e3)
            << " ms, router blocked on the in-flight fit bound "
            << qnet::FormatDouble(stats.router_blocked_seconds * 1e3) << " ms)\n";
  if (campaign_mode) {
    std::cout << "Campaign '" << campaign.name << "': " << campaign.description
              << " (quiet prefix ends t = " << qnet::FormatDouble(campaign.quiet_until)
              << " s, horizon " << qnet::FormatDouble(campaign.horizon) << " s)\n\n";
  } else {
    std::cout << "Fault injected at t = " << qnet::FormatDouble(fault_at)
              << " s: stage-2 service slows 3x (true mean 0.05 -> 0.15 s)\n\n";
  }

  // Where the time went, per pipeline stage, straight from the telemetry registry's
  // stage histograms (the ad-hoc per-lane counters block this replaces lives on in the
  // registry snapshot — see --metrics-out).
  std::cout << "Stage latencies (from the telemetry histogram registry):\n"
            << qnet::StageSummaryTable(qnet::MetricRegistry::Global().Snapshot())
            << '\n';

  qnet::TablePrinter table({"window", "tasks", "fit", "iters", "est svc q1", "est svc q2",
                            "est wait q2", "fcast latency 1x", "fcast latency 2x"});
  const auto& forecasts = forecaster.Reports();
  std::size_t degraded_windows = 0;
  for (std::size_t w = 0; w < estimates.size(); ++w) {
    const auto& est = estimates[w];
    const std::string span = qnet::FormatDouble(est.t0) + " - " + qnet::FormatDouble(est.t1) +
                             (est.merged_tail_tasks > 0 ? " (tail merged)" : "");
    const auto& cells = forecasts[w].cells;
    degraded_windows += est.degraded ? 1 : 0;
    table.AddRow({span, std::to_string(est.tasks),
                  est.degraded ? "mean-field" : "stem",
                  std::to_string(est.fit_iterations),
                  qnet::FormatDouble(1.0 / est.rates[1]),
                  qnet::FormatDouble(1.0 / est.rates[2]),
                  est.mean_wait.empty() ? "-" : qnet::FormatDouble(est.mean_wait[2]),
                  qnet::FormatDouble(cells[0].mean_response.mean),
                  qnet::FormatDouble(cells[1].mean_response.mean)});
  }
  table.Print(std::cout);
  if (!campaign_mode) {
    std::cout << "\nThe stage-2 service estimate should jump ~3x in the windows after "
                 "the fault, and the 2x-load latency forecast should blow up with it.\n";
  }

  // Live alert feed: everything the detector bank raised, in raise order, with full
  // provenance back to the triggering window.
  const std::vector<qnet::Alert>& alerts = monitor.Alerts();
  std::cout << "\nAlert feed (" << alerts.size() << " alert(s)):\n";
  if (alerts.empty()) {
    std::cout << "  (none -- the detectors stayed quiet)\n";
  } else {
    qnet::TablePrinter alert_table(
        {"window", "kind", "detector", "queue", "closes t", "magnitude", "statistic"});
    for (const qnet::Alert& a : alerts) {
      alert_table.AddRow({std::to_string(a.window), qnet::AlertKindName(a.kind),
                          qnet::DetectorKindName(a.detector), std::to_string(a.queue),
                          qnet::FormatDouble(a.t1),
                          qnet::FormatDouble(a.magnitude * 100.0) + "%",
                          qnet::FormatDouble(a.statistic)});
    }
    alert_table.Print(std::cout);
  }

  if (campaign_mode) {
    // Score the alert log against the campaign's ground-truth labels — the same
    // numbers bench/perf_detect.cc gates in CI.
    const qnet::CampaignResult scored =
        qnet::ScoreCampaign(campaign, estimates, alerts);
    std::cout << "\nCampaign scorecard:\n";
    for (const qnet::CampaignEventOutcome& outcome : scored.outcomes) {
      std::cout << "  [" << qnet::AlertKindName(outcome.event.kind) << "] "
                << outcome.event.label << " at t = "
                << qnet::FormatDouble(outcome.event.time) << " s (window "
                << outcome.event_window << "): ";
      if (outcome.detected) {
        std::cout << "detected at window " << outcome.detection_window << " (latency "
                  << outcome.latency_windows << " window(s))\n";
      } else {
        std::cout << "MISSED\n";
      }
    }
    std::cout << "  false alarms on the quiet prefix: " << scored.false_alarms << "\n";
  }

  if (fast_path != "off") {
    // Per-window fit_iterations sums lane fits, so the budget is lanes x iterations per
    // non-degraded window (a merged-tail re-fit adds its re-run on top; savings are
    // reported against the windows actually emitted).
    const std::size_t budget =
        estimates.size() * stats.lanes * options.stream.stem.iterations;
    const std::size_t ran = stats.fit_iterations_total;
    std::cout << "\nFast path '" << fast_path << "': " << stats.degraded_windows << " of "
              << estimates.size() << " pooled windows degraded to mean-field-only ("
              << forecaster.DegradedForecasts() << " forecasts consumed them); StEM ran "
              << ran << " of " << budget << " budgeted iterations";
    if (budget > 0) {
      std::cout << " (" << qnet::FormatDouble(
                       100.0 * (1.0 - static_cast<double>(ran) /
                                          static_cast<double>(budget)))
                << "% saved)";
    }
    std::cout << "\n(degraded_windows counts pooled emissions; " << degraded_windows
              << " of the final estimates carry the flag)\n";
  }

  if (lanes > 1) {
    // Same seed -> the live simulator emits the identical record stream; the span
    // tracker therefore closes the identical windows, and only the per-lane fits differ.
    qnet::LiveSimStream reference_stream(net, sim_options, seed);
    qnet::ShardedStreamingOptions reference_options = options;
    reference_options.lanes = 1;
    reference_options.stream.on_window = nullptr;
    qnet::ShardedStreamingEstimator reference(init, seed, reference_options);
    const auto single = reference.Run(reference_stream);
    double worst = 0.0;
    if (single.size() == estimates.size()) {
      for (std::size_t w = 0; w < estimates.size(); ++w) {
        for (std::size_t q = 1; q < estimates[w].rates.size(); ++q) {
          const double pooled_service = 1.0 / estimates[w].rates[q];
          const double single_service = 1.0 / single[w].rates[q];
          worst = std::max(worst,
                           std::abs(pooled_service - single_service) / single_service);
        }
      }
      std::cout << "\nCross-check vs a single-lane run of the identical stream: window "
                   "spans identical; largest service-time deviation of the pooled "
                << lanes << "-lane estimates: " << qnet::FormatDouble(worst * 100.0)
                << "%\n";
      if (options.cross_lane_bias_correction) {
        std::cout << "(cross-lane bias correction is ON — rerun with --bias-correction "
                     "0 to see the raw decomposition\nbias it removes, which "
                     "concentrates in highly utilized windows)\n";
      } else {
        std::cout << "(deviation concentrates in highly utilized windows, where a "
                     "lane's sub-stream attributes cross-lane\nqueueing delay to "
                     "service — the decomposition bias that --bias-correction 1 "
                     "removes; the fault jump\nitself is detected identically at every "
                     "lane count)\n";
      }
    }
  }

  if (flags.Has("report")) {
    const std::string path = flags.GetString("report", "windows.csv");
    qnet::WriteWindowEstimatesFile(path, estimates, net.NumQueues());
    std::cout << "\nWrote per-window estimates to " << path << "\n";
  }

  if (flags.Has("alerts-out")) {
    const std::string path = flags.GetString("alerts-out", "alerts.csv");
    qnet::WriteAlertsCsvFile(path, alerts);
    std::cout << "Wrote alert log to " << path << "\n";
  }

  if (flags.Has("metrics-out")) {
    const std::string path = flags.GetString("metrics-out", "metrics.prom");
    const qnet::MetricsSnapshot snapshot = qnet::MetricRegistry::Global().Snapshot();
    const bool json = path.size() >= 5 && path.substr(path.size() - 5) == ".json";
    if (qnet::WriteFileOrWarn(path,
                              json ? qnet::ToJson(snapshot)
                                   : qnet::ToPrometheusText(snapshot))) {
      std::cout << "\nWrote " << (json ? "JSON" : "Prometheus") << " metrics snapshot to "
                << path << "\n";
    }
  }
  if (flags.Has("trace-out")) {
    const std::string path = flags.GetString("trace-out", "trace.json");
    if (qnet::WriteFileOrWarn(path,
                              qnet::ToChromeTrace(qnet::Timeline::CollectSpans()))) {
      std::cout << "Wrote Chrome trace (open in Perfetto / chrome://tracing) to " << path
                << "\n";
    }
  }
  return 0;
}
