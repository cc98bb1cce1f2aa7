#include "qnet/telemetry/metrics.h"

#include <algorithm>

#include "qnet/support/check.h"

namespace qnet {

double HistogramSample::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based), then walk the cumulative counts.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5));
  std::uint64_t seen = 0;
  for (const auto& b : buckets) {
    seen += b.count;
    if (seen >= rank) {
      // The top bucket answers with the exact observed max (the only per-observation
      // value the histogram retains); lower buckets answer with their midpoint,
      // clamped to max so tail quantiles never overshoot reality.
      if (&b == &buckets.back()) {
        return static_cast<double>(max);
      }
      const double mid = static_cast<double>(b.lower) + 0.5 * static_cast<double>(b.width - 1);
      return std::min(mid, static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

const CounterSample* MetricsSnapshot::FindCounter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::FindHistogram(std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricRegistry::MetricRegistry(const MetricRegistryCapacity& capacity)
    : capacity_(capacity),
      counters_(new Counter[capacity.counters]),
      gauges_(new Gauge[capacity.gauges]),
      histograms_(new Histogram[capacity.histograms]) {
  counter_names_.reserve(capacity.counters);
  gauge_names_.reserve(capacity.gauges);
  histogram_names_.reserve(capacity.histograms);
}

namespace {

// Shared lookup-or-claim over one metric block. Names vector is pre-reserved at
// construction, so push_back never reallocates and existing name storage is stable.
template <typename T>
T* AddMetric(std::vector<std::string>& names, T* block, std::size_t capacity,
             std::string_view name, const char* kind) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      return &block[i];
    }
  }
  QNET_CHECK(names.size() < capacity, "MetricRegistry ", kind,
             " capacity exhausted (", capacity,
             "); raise MetricRegistryCapacity at setup time");
  names.emplace_back(name);
  return &block[names.size() - 1];
}

}  // namespace

Counter* MetricRegistry::AddCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return AddMetric(counter_names_, counters_.get(), capacity_.counters, name, "counter");
}

Gauge* MetricRegistry::AddGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return AddMetric(gauge_names_, gauges_.get(), capacity_.gauges, name, "gauge");
}

Histogram* MetricRegistry::AddHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return AddMetric(histogram_names_, histograms_.get(), capacity_.histograms, name,
                   "histogram");
}

std::size_t MetricRegistry::NumCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counter_names_.size();
}

std::size_t MetricRegistry::NumGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauge_names_.size();
}

std::size_t MetricRegistry::NumHistograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_names_.size();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters.push_back({counter_names_[i], counters_[i].Value()});
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.push_back({gauge_names_[i], gauges_[i].Value()});
  }
  snap.histograms.reserve(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    HistogramSample h;
    h.name = histogram_names_[i];
    h.sum = histograms_[i].Sum();
    h.max = histograms_[i].Max();
    for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      const std::uint64_t c = histograms_[i].BucketCount(b);
      if (c != 0) {
        h.buckets.push_back(
            {Histogram::BucketLowerBound(b), Histogram::BucketWidth(b), c});
        h.count += c;
      }
    }
    snap.histograms.push_back(std::move(h));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) counters_[i].Reset();
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) gauges_[i].Reset();
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) histograms_[i].Reset();
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry registry;
  return registry;
}

const StreamCounters& StreamCounters::Get() {
  static const StreamCounters c = [] {
    MetricRegistry& r = MetricRegistry::Global();
    StreamCounters b;
    b.tasks_ingested = r.AddCounter("qnet_stream_tasks_ingested_total");
    b.late_dropped = r.AddCounter("qnet_stream_late_dropped_total");
    b.tail_dropped = r.AddCounter("qnet_stream_tail_dropped_total");
    b.windows_closed = r.AddCounter("qnet_stream_windows_closed_total");
    b.windows_estimated = r.AddCounter("qnet_stream_windows_estimated_total");
    b.degraded_windows = r.AddCounter("qnet_stream_degraded_windows_total");
    b.fit_iterations = r.AddCounter("qnet_stream_fit_iterations_total");
    b.window_logs_built = r.AddCounter("qnet_stream_window_logs_built_total");
    b.peak_buffered_tasks = r.AddGauge("qnet_stream_peak_buffered_tasks");
    return b;
  }();
  return c;
}

const SweepCounters& SweepCounters::Get() {
  static const SweepCounters c = [] {
    MetricRegistry& r = MetricRegistry::Global();
    SweepCounters b;
    b.sweeps = r.AddCounter("qnet_sweep_sweeps_total");
    b.moves = r.AddCounter("qnet_sweep_moves_total");
    return b;
  }();
  return c;
}

const FitCounters& FitCounters::Get() {
  static const FitCounters c = [] {
    MetricRegistry& r = MetricRegistry::Global();
    FitCounters b;
    b.stem_fits = r.AddCounter("qnet_fit_stem_fits_total");
    b.stem_iterations = r.AddCounter("qnet_fit_stem_iterations_total");
    b.meanfield_fits = r.AddCounter("qnet_fit_meanfield_fits_total");
    return b;
  }();
  return c;
}

const ScenarioCounters& ScenarioCounters::Get() {
  static const ScenarioCounters c = [] {
    MetricRegistry& r = MetricRegistry::Global();
    ScenarioCounters b;
    b.cells = r.AddCounter("qnet_scenario_cells_total");
    b.draws = r.AddCounter("qnet_scenario_draws_total");
    return b;
  }();
  return c;
}

const SimCounters& SimCounters::Get() {
  static const SimCounters c = [] {
    MetricRegistry& r = MetricRegistry::Global();
    SimCounters b;
    b.runs = r.AddCounter("qnet_sim_runs_total");
    b.tasks = r.AddCounter("qnet_sim_tasks_total");
    return b;
  }();
  return c;
}

const DetectCounters& DetectCounters::Get() {
  static const DetectCounters c = [] {
    MetricRegistry& r = MetricRegistry::Global();
    DetectCounters b;
    b.windows_observed = r.AddCounter("qnet_detect_windows_observed_total");
    b.alerts_total = r.AddCounter("qnet_detect_alerts_total");
    b.rate_shift_alerts = r.AddCounter("qnet_detect_rate_shift_alerts_total");
    b.service_drift_alerts = r.AddCounter("qnet_detect_service_drift_alerts_total");
    b.bottleneck_migration_alerts =
        r.AddCounter("qnet_detect_bottleneck_migration_alerts_total");
    b.degraded_run_alerts = r.AddCounter("qnet_detect_degraded_run_alerts_total");
    b.detection_latency_windows = r.AddHistogram("qnet_detect_latency_windows");
    return b;
  }();
  return c;
}

const ShardCounters& ShardCounters::Get() {
  static const ShardCounters c = [] {
    MetricRegistry& r = MetricRegistry::Global();
    ShardCounters b;
    b.records_routed = r.AddCounter("qnet_shard_records_routed_total");
    return b;
  }();
  return c;
}

StreamCounterBaseline StreamCounterBaseline::Capture() {
  const StreamCounters& c = StreamCounters::Get();
  StreamCounterBaseline b;
  b.tasks_ingested = c.tasks_ingested->Value();
  b.late_dropped = c.late_dropped->Value();
  b.tail_dropped = c.tail_dropped->Value();
  b.windows_closed = c.windows_closed->Value();
  b.windows_estimated = c.windows_estimated->Value();
  b.degraded_windows = c.degraded_windows->Value();
  b.fit_iterations = c.fit_iterations->Value();
  return b;
}

std::uint64_t StreamCounterBaseline::TasksIngestedDelta() const {
  return StreamCounters::Get().tasks_ingested->Value() - tasks_ingested;
}
std::uint64_t StreamCounterBaseline::LateDroppedDelta() const {
  return StreamCounters::Get().late_dropped->Value() - late_dropped;
}
std::uint64_t StreamCounterBaseline::TailDroppedDelta() const {
  return StreamCounters::Get().tail_dropped->Value() - tail_dropped;
}
std::uint64_t StreamCounterBaseline::WindowsClosedDelta() const {
  return StreamCounters::Get().windows_closed->Value() - windows_closed;
}
std::uint64_t StreamCounterBaseline::WindowsEstimatedDelta() const {
  return StreamCounters::Get().windows_estimated->Value() - windows_estimated;
}
std::uint64_t StreamCounterBaseline::DegradedWindowsDelta() const {
  return StreamCounters::Get().degraded_windows->Value() - degraded_windows;
}
std::uint64_t StreamCounterBaseline::FitIterationsDelta() const {
  return StreamCounters::Get().fit_iterations->Value() - fit_iterations;
}

}  // namespace qnet
