// Continuous capacity forecasting: re-evaluate a scenario grid on every closed window of
// the streaming estimator, turning the per-window rate estimates into a rolling what-if
// forecast ("if load doubled right now, where would latency land?").
//
// WindowForecaster adapts ScenarioEngine to StreamingEstimatorOptions::on_window. Window
// w's grid evaluation is seeded MixSeed(seed, w) — forecasts inherit the streaming
// engine's determinism contract (bit-identical across runs and for any forecaster
// thread count). A merged-tail re-fit (see
// WindowEstimate::merged_tail_tasks) REPLACES the last forecast with a re-evaluation at
// the same window seed, mirroring how the estimator replaces the estimate itself.

#ifndef QNET_SCENARIO_FORECAST_H_
#define QNET_SCENARIO_FORECAST_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "qnet/model/network.h"
#include "qnet/scenario/scenario_engine.h"
#include "qnet/scenario/scenario_spec.h"
#include "qnet/stream/streaming_estimator.h"

namespace qnet {

class WindowForecaster {
 public:
  // `base` supplies topology (cloned; rates come from each window's estimate).
  WindowForecaster(const QueueingNetwork& base, ScenarioGrid grid,
                   const ScenarioEngineOptions& options, std::uint64_t seed);

  // Evaluates the grid at the window's point rates and appends (or, for a merged-tail
  // re-fit, replaces) the report. Returns the report just produced. Estimates fitted
  // with window-local lambda anchoring (WindowEstimate::window_local_arrival_rate) are
  // used verbatim; legacy absolute-anchored estimates substitute the window's empirical
  // tasks / (t1 - t0) for the decayed lambda iterate.
  const ScenarioReport& Forecast(const WindowEstimate& estimate);

  // Adapter for StreamingEstimatorOptions::on_window (captures `this`; the forecaster
  // must outlive the estimator's Run call).
  std::function<void(const WindowEstimate&)> Hook();

  // One report per estimated window, in window order.
  const std::vector<ScenarioReport>& Reports() const { return reports_; }

  // Forecasts evaluated from a degraded (mean-field-only) estimate — see
  // WindowEstimate::degraded. Degraded estimates are consumed like any other (the grid
  // only needs point rates, which the mean-field fit supplies), but an operator reading
  // a forecast stream under overload should know how many of its points came from the
  // sampler-free path; a merged-tail replacement re-counts its emission.
  std::size_t DegradedForecasts() const { return degraded_forecasts_; }

 private:
  QueueingNetwork base_;
  ScenarioGrid grid_;
  ScenarioEngine engine_;
  std::uint64_t seed_;
  std::size_t windows_ = 0;
  std::size_t degraded_forecasts_ = 0;
  std::vector<ScenarioReport> reports_;
};

}  // namespace qnet

#endif  // QNET_SCENARIO_FORECAST_H_
