#include "bench.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "system.h"
#include "traced.h"

namespace perfbench {
namespace {

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

std::string Format(const char* format, double value) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

// Windows of `pass` failing a check, capped at the pass's window count.
std::size_t FailedWindows(const Workload& workload, const Trace& trace,
                          const PassResult& pass,
                          const std::vector<qnet::WindowEstimate>* first) {
  std::size_t failed = CountBadWindows(workload, trace, pass.estimates) +
                       pass.unstamped_windows;
  if (first != nullptr) {
    // Every pass replays the same input into a fresh system: same estimates.
    failed += CountMismatches(*first, pass.estimates);
  }
  for (const qnet::LaneStats& lane : pass.fleet_stats.lane) {
    failed += lane.skipped_fits;
  }
  return std::min(failed, workload.PassWindows());
}

std::vector<Metric> AccuracyMetrics(const Accuracy& accuracy) {
  return {{"svc_rate_rel_err_p50", accuracy.svc_rate_rel_err_p50, "ratio"},
          {"wait_rel_err_p50", accuracy.wait_rel_err_p50, "ratio"},
          {"arrival_rate_rel_err_p50", accuracy.arrival_rate_rel_err_p50, "ratio"}};
}

// Scores one pass's estimates; outside the workload's envelope the run is incorrect.
Accuracy CheckAccuracy(const Workload& workload, const Trace& trace,
                       const std::vector<qnet::WindowEstimate>& estimates, RunResult& result) {
  const Accuracy accuracy = MeasureAccuracy(trace, estimates);
  if (!WithinEnvelope(workload, accuracy)) {
    result.correct = false;
    result.notes.push_back("accuracy outside the workload's sanity envelope");
  }
  return accuracy;
}

std::string Quartiles(const std::vector<double>& values) {
  std::string text;
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    text += (text.empty() ? "" : " / ") + Format("%.6g", Quantile(values, q));
  }
  return text;
}

// One timing of the host-speed reference (see bench.h), in milliseconds.
double ReferenceMs() {
  // Independent scalar log/exp chains over an L1-resident array: throughput-bound
  // floating point like the sampler's sweeps, and not vectorized without -ffast-math.
  std::array<double, 256> values;
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 + 1e-3 * static_cast<double>(i);
  }
  const std::uint64_t start_ns = NowNs();
  for (int rep = 0; rep < 1000; ++rep) {
    for (double& value : values) {
      value = std::log(value + 1.5) * std::exp(-0.01 * value) + 0.5;
    }
  }
  asm volatile("" : : "r"(values.data()) : "memory");  // every result is kept
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

}  // namespace

double ReplayNsPerTask(const Workload& workload, const Trace& trace) {
  std::vector<double> samples;
  qnet::TaskRecord record;
  for (int drain = 0; drain < 5; ++drain) {
    LapReplay replay(trace, workload.pass_laps, nullptr);
    const std::uint64_t start_ns = NowNs();
    while (replay.Next(record)) {
    }
    samples.push_back(static_cast<double>(NowNs() - start_ns) /
                      static_cast<double>(replay.Pulled()));
  }
  return Median(samples);
}

RunResult RunEndToEnd(const Workload& workload, const Trace& trace, std::uint64_t seed,
                      double seconds) {
  RunResult result;
  result.correct = true;
  std::vector<PassResult> passes;
  std::vector<double> slowness;  // per pass: reference ms / nominal
  double peak_rss_mb = 0.0;
  const std::uint64_t start_ns = NowNs();
  double reference_ms = ReferenceMs();
  while (passes.size() < kMinPasses || SecondsSince(start_ns) < seconds) {
    PassResult pass = RunPass(workload, trace, seed);
    const double after_ms = ReferenceMs();
    slowness.push_back((reference_ms + after_ms) / (2.0 * kNominalReferenceMs));
    reference_ms = after_ms;
    result.attempted += workload.PassWindows();
    result.failed += FailedWindows(workload, trace, pass,
                                   passes.empty() ? nullptr : &passes[0].estimates);
    if (!passes.empty()) {
      pass.estimates.clear();  // only the first pass's sequence is kept for reference
    }
    passes.push_back(std::move(pass));
    if (passes.size() == kMinPasses) {
      // Sampled after a fixed number of passes, so the figure does not depend on how
      // many passes a faster or slower build fits into the run.
      peak_rss_mb = PeakRssMb();
    }
  }

  std::vector<double> throughput;
  std::vector<double> setup;
  std::vector<double> p50;
  std::vector<double> p90;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& pass = passes[i];
    throughput.push_back(pass.steady_tasks_per_s * slowness[i]);
    setup.push_back(pass.setup_s / slowness[i]);
    p50.push_back(pass.latency_p50_ms / slowness[i]);
    p90.push_back(pass.latency_p90_ms / slowness[i]);
  }
  result.metrics.push_back({"tasks_per_s", Median(throughput), "1/s"});
  result.metrics.push_back({"window_latency_p50_ms", Median(p50), "ms"});
  result.metrics.push_back({"window_latency_p90_ms", Median(p90), "ms"});
  result.metrics.push_back({"setup_s", Median(setup), "s"});
  result.metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  const Accuracy accuracy = CheckAccuracy(workload, trace, passes[0].estimates, result);

  result.correct = result.correct && result.failed == 0;
  result.notes.push_back("passes: " + std::to_string(passes.size()) + ", steady windows per pass: " +
                         std::to_string(passes[0].latency_ms.size()) + ", alerts per pass: " +
                         std::to_string(passes[0].alerts));
  result.notes.push_back("tasks_per_s over passes (scaled) (min / q1 / median / q3 / max): " +
                         Quartiles(throughput));
  result.notes.push_back("setup_s over passes (scaled): " + Quartiles(setup));
  result.notes.push_back("latency p50 over passes (scaled): " + Quartiles(p50));
  result.notes.push_back("latency p90 over passes (scaled): " + Quartiles(p90));
  std::vector<double> wall[4];
  for (const PassResult& pass : passes) {
    wall[0].push_back(pass.steady_tasks_per_s);
    wall[1].push_back(pass.latency_p50_ms);
    wall[2].push_back(pass.latency_p90_ms);
    wall[3].push_back(pass.setup_s);
  }
  result.notes.push_back("host slowness over passes (reference ms / " +
                         Format("%.1f", kNominalReferenceMs) + "): " + Quartiles(slowness));
  result.notes.push_back("unscaled medians: tasks_per_s " + Format("%.6g", Median(wall[0])) +
                         ", latency p50 " + Format("%.6g ms", Median(wall[1])) + ", p90 " +
                         Format("%.6g ms", Median(wall[2])) + ", setup " +
                         Format("%.6g s", Median(wall[3])));
  for (const Metric& metric : AccuracyMetrics(accuracy)) {
    result.notes.push_back(metric.name + ": " + Format("%.6g", metric.value));
  }
  result.notes.push_back(
      "failed_share: " +
      Format("%.6g", static_cast<double>(result.failed) / static_cast<double>(result.attempted)) +
      " (" + std::to_string(result.failed) + " of " + std::to_string(result.attempted) +
      " windows)");
  return result;
}

RunResult RunTraced(const Workload& workload, const Trace& trace, std::uint64_t seed,
                    double seconds, const std::string& spans_path) {
  RunResult result;
  result.correct = true;
  const double replay_ns = ReplayNsPerTask(workload, trace);

  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  std::array<std::uint64_t, kStages> self_ns{};
  std::uint64_t pass_total_ns = 0;
  std::size_t tasks = 0;
  std::size_t windows = 0;
  std::size_t stem_iterations = 0;
  std::size_t stem_moves = 0;
  std::size_t peak_buffered = 0;
  std::size_t alerts = 0;
  std::size_t records_dropped = 0;
  double system_wall = 0.0;
  double router_blocked = 0.0;
  double max_merge_lag = 0.0;
  double lane_skew = 0.0;
  std::size_t peak_queue_depth = 0;
  std::vector<qnet::WindowEstimate> reference;

  const std::uint64_t start_ns = NowNs();
  for (std::size_t cycle = 0; cycle < kMinCycles || SecondsSince(start_ns) < seconds; ++cycle) {
    PassResult system = RunPass(workload, trace, seed);
    Tracer off(false);
    const RecomposedPass untraced = RecomposePass(workload, trace, seed, off);
    Tracer on(true);
    const RecomposedPass traced = RecomposePass(workload, trace, seed, on);

    // Three passes per cycle, each checked: the system pass like an end-to-end pass and
    // against the first cycle's; the recompositions must equal it bit for bit, and the
    // traced one must have no untraced hole.
    const std::size_t pass_windows = workload.PassWindows();
    if (cycle == 0) {
      reference = system.estimates;
      if (!spans_path.empty() && !WriteSpans(spans_path, on)) {
        result.notes.push_back("could not write spans to " + spans_path);
      }
    }
    const double coverage = on.Coverage();
    if (!(coverage >= kMinCoverage)) {
      result.notes.push_back("traced pass covers only " + Format("%.4f", coverage) +
                             " of its wall with layer spans (minimum " +
                             Format("%.2f", kMinCoverage) + ")");
    }
    result.attempted += 3 * pass_windows;
    result.failed += FailedWindows(workload, trace, system, &reference);
    result.failed += std::min(CountMismatches(system.estimates, untraced.estimates),
                              pass_windows);
    result.failed += coverage >= kMinCoverage
                         ? std::min(CountMismatches(system.estimates, traced.estimates),
                                    pass_windows)
                         : pass_windows;

    traced_wall.push_back(traced.wall_s);
    untraced_wall.push_back(untraced.wall_s);
    for (std::size_t s = 0; s < kStages; ++s) {
      self_ns[s] += on.SelfNs(static_cast<Stage>(s));
    }
    pass_total_ns += on.TotalNs(Stage::kPass);
    tasks += traced.tasks;
    windows += traced.estimates.size();
    stem_iterations += traced.stem_iterations;
    stem_moves += traced.stem_moves;
    peak_buffered = std::max(peak_buffered, traced.peak_buffered_tasks);
    alerts = traced.alerts;
    records_dropped = std::max(records_dropped, system.records_dropped);
    system_wall += system.wall_s;
    if (system.fleet) {
      const qnet::FleetStats& fleet = system.fleet_stats;
      router_blocked += fleet.router_blocked_seconds;
      max_merge_lag = std::max(max_merge_lag, fleet.max_merge_lag_seconds);
      std::size_t most = 0;
      for (const qnet::LaneStats& lane : fleet.lane) {
        most = std::max(most, lane.tasks_routed);
        peak_queue_depth = std::max(peak_queue_depth, lane.peak_queue_depth);
      }
      lane_skew = static_cast<double>(most) * static_cast<double>(fleet.lane.size()) /
                  static_cast<double>(fleet.tasks_ingested);
    }
  }

  const auto self = [&](Stage stage) {
    return static_cast<double>(self_ns[static_cast<std::size_t>(stage)]);
  };
  const double task_count = static_cast<double>(tasks);
  const double window_count = static_cast<double>(windows);
  const bool fleet = workload.system == SystemKind::kFleet;
  const double lanes = fleet ? static_cast<double>(MakeFleetOptions(workload).lanes) : 1.0;
  double layer_self = 0.0;
  for (std::size_t s = 1; s < kStages; ++s) {  // every stage but the root pass
    layer_self += self(static_cast<Stage>(s));
  }

  result.metrics = {
      {"stream.span_ns_per_task", self(Stage::kSpanPush) / task_count, "ns"},
      {"stream.build_ns_per_task", self(Stage::kBuild) / task_count, "ns"},
      {"stream.peak_buffered_tasks", static_cast<double>(peak_buffered), "count"},
      {"stream.records_dropped", static_cast<double>(records_dropped), "count"},
      {"infer.meanfield_us_per_window", self(Stage::kMeanField) / window_count * 1e-3, "us"},
      {"infer.stem_ms_per_window", self(Stage::kStem) / window_count * 1e-6, "ms"},
      {"infer.stem_iterations_per_window",
       static_cast<double>(stem_iterations) / window_count, "count"},
      {"infer.stem_ns_per_move",
       stem_moves > 0 ? self(Stage::kStem) / static_cast<double>(stem_moves) : 0.0, "ns"},
      {"shard.route_ns_per_task", self(Stage::kRoute) / task_count, "ns"},
      {"shard.merge_us_per_window", self(Stage::kMerge) / window_count * 1e-3, "us"},
      {"shard.router_blocked_share", fleet ? router_blocked / system_wall : 0.0, "ratio"},
      {"shard.lane_fit_share",
       fleet ? (self(Stage::kBuild) + self(Stage::kMeanField)) * 1e-9 / (lanes * system_wall)
             : 0.0,
       "ratio"},
      {"shard.max_merge_lag_ms", max_merge_lag * 1e3, "ms"},
      {"shard.lane_skew", lane_skew, "ratio"},
      {"shard.peak_queue_depth", static_cast<double>(peak_queue_depth), "count"},
      {"detect.observe_us_per_window", self(Stage::kDetect) / window_count * 1e-3, "us"},
      {"detect.alerts", static_cast<double>(alerts), "count"},
      {"scenario.forecast_ms_per_window", self(Stage::kForecast) / window_count * 1e-6, "ms"},
      {"gen.replay_ns_per_task", replay_ns, "ns"},
      {"trace.coverage", layer_self / static_cast<double>(pass_total_ns), "ratio"},
      {"trace.overhead_share", Median(traced_wall) / Median(untraced_wall) - 1.0, "ratio"},
  };
  for (const Metric& metric : AccuracyMetrics(CheckAccuracy(workload, trace, reference, result))) {
    result.metrics.push_back(metric);
  }

  result.notes.push_back("cycles: " + std::to_string(traced_wall.size()) +
                         ", traced pass wall " + Format("%.4f s", Median(traced_wall)) +
                         ", untraced recomposition " + Format("%.4f s", Median(untraced_wall)));
  for (std::size_t s = 0; s < kStages; ++s) {
    const auto stage = static_cast<Stage>(s);
    result.notes.push_back(std::string("  self ") + StageName(stage) + ": " +
                           Format("%.4f s", self(stage) * 1e-9) + " (" +
                           Format("%.2f%% of traced wall)",
                                  100.0 * self(stage) / static_cast<double>(pass_total_ns)));
  }
  result.correct = result.correct && result.failed == 0;
  return result;
}

}  // namespace perfbench
