#include "system.h"

#include "qnet/detect/change_monitor.h"
#include "qnet/scenario/scenario_spec.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/support/rng.h"
#include "report.h"

namespace perfbench {

std::uint64_t FitSeed(std::uint64_t seed) { return qnet::MixSeed(seed, 1); }
std::uint64_t ForecastSeed(std::uint64_t seed) { return qnet::MixSeed(seed, 2); }

std::unique_ptr<qnet::WindowForecaster> MakeForecaster(const qnet::QueueingNetwork& net,
                                                       std::uint64_t seed) {
  qnet::ScenarioAxis load;
  load.kind = qnet::AxisKind::kArrivalScale;
  load.name = "load";
  load.values = {1.0, 2.0};
  qnet::ScenarioEngineOptions options;
  options.max_draws = 1;
  options.tasks_per_draw = 400;
  return std::make_unique<qnet::WindowForecaster>(net, qnet::ScenarioGrid({load}), options,
                                                  seed);
}

PassResult RunPass(const Workload& workload, const Trace& trace, std::uint64_t seed) {
  const std::size_t windows = workload.PassWindows();
  std::vector<std::uint64_t> close_ns(windows, 0);
  std::vector<std::uint64_t> emit_ns(windows, 0);
  std::uint64_t warm_ns = 0;
  std::size_t warm_pulled = 0;
  std::size_t emitted = 0;

  const std::uint64_t start_ns = NowNs();
  LapReplay replay(trace, workload.pass_laps, &close_ns);
  const qnet::QueueingNetwork net = MakeNetwork(workload);
  qnet::ChangeMonitor monitor(net.NumQueues());
  const std::unique_ptr<qnet::WindowForecaster> forecaster =
      workload.forecaster ? MakeForecaster(net, ForecastSeed(seed)) : nullptr;
  const auto on_window = [&](const qnet::WindowEstimate& estimate) {
    monitor.Observe(estimate);
    if (forecaster) {
      forecaster->Forecast(estimate);
    }
    const std::uint64_t now = NowNs();
    if (emitted < windows) {
      emit_ns[emitted] = now;
    }
    if (++emitted == workload.warmup_windows) {
      warm_ns = now;
      warm_pulled = replay.Pulled();
    }
  };

  PassResult result;
  const std::vector<double> init = InitRates(workload, net.NumQueues());
  if (workload.system == SystemKind::kFleet) {
    qnet::ShardedStreamingOptions options = MakeFleetOptions(workload);
    options.stream.on_window = on_window;
    qnet::ShardedStreamingEstimator fleet(init, FitSeed(seed), options);
    result.estimates = fleet.Run(replay);
    result.fleet = true;
    result.fleet_stats = fleet.Stats();
    result.records_dropped = fleet.Stats().late_dropped + fleet.Stats().tail_dropped;
  } else {
    qnet::StreamingEstimatorOptions options = MakeStreamOptions(workload);
    options.on_window = on_window;
    qnet::StreamingEstimator estimator(init, FitSeed(seed), options);
    result.estimates = estimator.Run(replay);
    result.records_dropped = estimator.Stats().late_dropped + estimator.Stats().tail_dropped;
    result.peak_buffered_tasks = estimator.Stats().peak_buffered_tasks;
  }
  const std::uint64_t end_ns = NowNs();

  result.tasks = replay.Pulled();
  result.alerts = monitor.Alerts().size();
  result.wall_s = static_cast<double>(end_ns - start_ns) * 1e-9;
  if (warm_ns != 0 && end_ns > warm_ns) {
    result.setup_s = static_cast<double>(warm_ns - start_ns) * 1e-9;
    result.steady_tasks_per_s = static_cast<double>(result.tasks - warm_pulled) /
                                (static_cast<double>(end_ns - warm_ns) * 1e-9);
  }
  for (std::size_t w = 0; w < windows; ++w) {
    if (close_ns[w] == 0 || emit_ns[w] < close_ns[w]) {
      ++result.unstamped_windows;
    } else if (w >= workload.warmup_windows) {
      result.latency_ms.push_back(static_cast<double>(emit_ns[w] - close_ns[w]) * 1e-6);
    }
  }
  if (!result.latency_ms.empty()) {
    result.latency_p50_ms = Quantile(result.latency_ms, 0.5);
    result.latency_p90_ms = Quantile(result.latency_ms, 0.9);
  }
  return result;
}

}  // namespace perfbench
