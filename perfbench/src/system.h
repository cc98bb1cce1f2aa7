// One untraced end-to-end pass of a workload's system under test: construct the
// estimator (plain or fleet), the ChangeMonitor and, where the workload has one, the
// WindowForecaster; replay `pass_laps` laps through the library's public Run(); time
// set-up, steady-state throughput and per-window latency from the harness side.

#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "qnet/model/network.h"
#include "qnet/scenario/forecast.h"
#include "qnet/shard/fleet_stats.h"
#include "qnet/stream/streaming_estimator.h"
#include "workload.h"

namespace perfbench {

// Seeds of the estimator's fits and the forecaster's grid draws, derived from the
// workload seed (the trace itself is generated from the workload seed directly).
std::uint64_t FitSeed(std::uint64_t seed);
std::uint64_t ForecastSeed(std::uint64_t seed);

// The forecaster every forecasting workload chains after detection: a 2-cell load grid
// (1x, 2x) with one draw of 400 tasks per cell.
std::unique_ptr<qnet::WindowForecaster> MakeForecaster(const qnet::QueueingNetwork& net,
                                                       std::uint64_t seed);

struct PassResult {
  std::vector<qnet::WindowEstimate> estimates;
  // Per steady-state window (index >= warmup_windows): from the pull of the record that
  // closed it to its estimate leaving on_window after the detect and forecast hooks.
  std::vector<double> latency_ms;
  double latency_p50_ms = 0.0;  // percentiles of latency_ms
  double latency_p90_ms = 0.0;
  // From constructing the system until its warm-up windows were emitted.
  double setup_s = 0.0;
  double steady_tasks_per_s = 0.0;
  double wall_s = 0.0;
  std::size_t tasks = 0;
  std::size_t alerts = 0;
  std::size_t records_dropped = 0;  // late + tail
  std::size_t peak_buffered_tasks = 0;  // StreamingStats' figure (plain estimator only)
  // Windows whose emission was never stamped or came before its closing pull: the
  // latency check that cannot run fails instead of being skipped.
  std::size_t unstamped_windows = 0;
  bool fleet = false;
  qnet::FleetStats fleet_stats;
};

PassResult RunPass(const Workload& workload, const Trace& trace, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
