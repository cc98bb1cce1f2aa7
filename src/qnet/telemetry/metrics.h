// Process-wide metric registry: counters, gauges, and log-bucketed histograms.
//
// The paper infers what a running service will not tell you; this layer makes sure the
// inference engine itself never has that problem. Design rules (the observability
// invariant in ROADMAP.md):
//
//  * Fixed-capacity registration at setup time. A MetricRegistry allocates every metric
//    slot at construction; AddCounter/AddGauge/AddHistogram hand out stable pointers
//    into those slots (re-registering a name returns the existing slot) and fail loudly
//    past capacity. Nothing on a hot path ever registers.
//  * Allocation-free, relaxed-atomic updates. Counter::Add, Gauge::SetMax and
//    Histogram::Record are single (or a handful of) relaxed atomic RMW operations —
//    safe from any thread, zero heap traffic, no fences on the sampler fast paths
//    (tests/test_alloc_free.cc pins this).
//  * One-way tap. Metrics observe; no code may read a metric back to make a decision.
//    Counters count deterministic events only; every wall-clock read lives in the
//    telemetry layer (timeline.h spans feeding stage histograms) or the legacy stats
//    stopwatches, and none of it feeds sampling or estimates.
//  * Single source for stats structs. StreamingStats / FleetStats shared fields are
//    read from the one increment site that also feeds these counters (see
//    StreamCounters below), so the exported metrics and the stats structs cannot
//    drift.
//
// Compile-time switch: building with -DQNET_TELEMETRY=0 compiles every *timing* surface
// (histograms, spans, trace rings — see timeline.h) down to no-ops. Counters and gauges
// stay live under =0: they count deterministic events, back the user-facing stats
// structs, and cost one relaxed add each — the switch removes clocks, not accounting.

#ifndef QNET_TELEMETRY_METRICS_H_
#define QNET_TELEMETRY_METRICS_H_

#ifndef QNET_TELEMETRY
#define QNET_TELEMETRY 1
#endif

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qnet {

// Monotonic event count. Relaxed ordering: counters are statistics, never
// synchronization.
class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written / high-water-mark value (peak queue depths, buffer high-water marks).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  // Monotone max — the lock-free high-water-mark update.
  void SetMax(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-bucketed (HDR-style) histogram over nonnegative integer values — nanosecond
// latencies throughout this codebase. Values 0..15 get exact buckets; above that each
// power-of-two octave splits into 8 sub-buckets, bounding the relative quantization
// error at 12.5% across the full uint64 range with a fixed 496-slot table. Record is
// three relaxed RMWs (bucket, sum, max) and never allocates.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr std::size_t kExactBuckets = 1u << (kSubBits + 1);  // 16
  static constexpr std::size_t kNumBuckets =
      kExactBuckets + (63 - kSubBits - 1) * (1u << kSubBits) + (1u << kSubBits);  // 496

  static std::size_t BucketIndex(std::uint64_t v) {
    if (v < kExactBuckets) {
      return static_cast<std::size_t>(v);
    }
    const int top = 63 - std::countl_zero(v);  // >= kSubBits + 1
    const std::uint64_t sub = (v >> (top - kSubBits)) & ((1u << kSubBits) - 1);
    return kExactBuckets +
           static_cast<std::size_t>(top - (kSubBits + 1)) * (1u << kSubBits) +
           static_cast<std::size_t>(sub);
  }

  // Smallest value mapping to bucket `index`; the bucket covers
  // [LowerBound(index), LowerBound(index) + Width(index)).
  static std::uint64_t BucketLowerBound(std::size_t index) {
    if (index < kExactBuckets) {
      return index;
    }
    const std::size_t i = index - kExactBuckets;
    const int top = (kSubBits + 1) + static_cast<int>(i / (1u << kSubBits));
    const std::uint64_t sub = i % (1u << kSubBits);
    return (std::uint64_t{1} << top) | (sub << (top - kSubBits));
  }
  static std::uint64_t BucketWidth(std::size_t index) {
    if (index < kExactBuckets) {
      return 1;
    }
    const int top = (kSubBits + 1) + static_cast<int>((index - kExactBuckets) /
                                                      (1u << kSubBits));
    return std::uint64_t{1} << (top - kSubBits);
  }

  void Record(std::uint64_t v) {
#if QNET_TELEMETRY
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
#else
    (void)v;
#endif
  }

  std::uint64_t BucketCount(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  void Reset() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// --- snapshots ---------------------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramBucketSample {
  std::uint64_t lower = 0;  // inclusive lower bound of the bucket
  std::uint64_t width = 1;  // bucket covers [lower, lower + width)
  std::uint64_t count = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<HistogramBucketSample> buckets;  // nonzero buckets, ascending lower bound

  // Quantile estimate from the log buckets (bucket midpoint; the top bucket answers
  // with the exact observed max). q in [0, 1].
  double Quantile(double q) const;
};

// A stable-ordered (name-sorted) copy of every registered metric's current value —
// what the exporters (telemetry/export.h) consume.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* FindCounter(std::string_view name) const;
  const HistogramSample* FindHistogram(std::string_view name) const;
};

// --- registry ----------------------------------------------------------------------------

struct MetricRegistryCapacity {
  std::size_t counters = 192;
  std::size_t gauges = 64;
  std::size_t histograms = 48;
};

class MetricRegistry {
 public:
  explicit MetricRegistry(const MetricRegistryCapacity& capacity = {});

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Registration is setup-time work (mutex-guarded, may touch the name table); the
  // returned pointers are stable for the registry's lifetime and are the hot-path
  // handles. Registering an already-known name returns the existing metric.
  Counter* AddCounter(std::string_view name);
  Gauge* AddGauge(std::string_view name);
  Histogram* AddHistogram(std::string_view name);

  std::size_t NumCounters() const;
  std::size_t NumGauges() const;
  std::size_t NumHistograms() const;

  // Name-sorted copy of all current values. Values are read relaxed; taking a snapshot
  // while updates are in flight yields a consistent-enough statistical view (exact once
  // the producing threads have quiesced, which is when the exporters run).
  MetricsSnapshot Snapshot() const;

  // Zeroes every metric (test isolation only; production code never resets).
  void ResetAll();

  // The process-wide registry every subsystem registers into.
  static MetricRegistry& Global();

 private:
  mutable std::mutex mu_;
  MetricRegistryCapacity capacity_;
  std::unique_ptr<Counter[]> counters_;
  std::unique_ptr<Gauge[]> gauges_;
  std::unique_ptr<Histogram[]> histograms_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
};

// --- subsystem instrument bundles --------------------------------------------------------
//
// One lazily-registered bundle of handles per subsystem, all in the global registry.
// Get() is a function-local static: first use registers (setup-time), every later use is
// a pointer read. Hot paths hold the bundle reference, not names.

// The streaming pipeline's shared counters — the single source for the fields that
// StreamingStats and FleetStats have in common. Incremented at
// exactly one site each (WindowSpanTracker for the ingest-side counts, the estimators'
// emit paths for the estimate-side counts); the stats structs are per-run deltas.
struct StreamCounters {
  Counter* tasks_ingested;      // WindowSpanTracker::Push calls (plain AND fleet path),
                                // added per window decision (PublishCounts)
  Counter* late_dropped;        // records discarded under LateRecordPolicy::kDrop
  Counter* tail_dropped;        // end-of-stream remainder with nothing to merge into
  Counter* windows_closed;      // span decisions (merged-tail re-closes excluded)
  Counter* windows_estimated;   // estimates emitted (merged-tail re-fits excluded)
  Counter* degraded_windows;    // estimates emitted with degraded = true
  Counter* fit_iterations;      // summed WindowEstimate::fit_iterations
  Counter* window_logs_built;   // WindowLogBuilder::Build calls (lanes build StEM windows only)
  Gauge* peak_buffered_tasks;   // high-water mark across lanes
  static const StreamCounters& Get();
};

// Sampler sweep execution (sharded_sweep.cc / move_kernel.cc).
struct SweepCounters {
  Counter* sweeps;  // scheduler sweeps executed
  Counter* moves;   // moves scheduled across those sweeps
  static const SweepCounters& Get();
};

// Window fits (stem.cc / meanfield.cc) — every caller, streaming or batch.
struct FitCounters {
  Counter* stem_fits;
  Counter* stem_iterations;  // iterations actually run (early stop shows up here)
  Counter* meanfield_fits;
  static const FitCounters& Get();
};

// Scenario engine cells (scenario_engine.cc).
struct ScenarioCounters {
  Counter* cells;
  Counter* draws;
  static const ScenarioCounters& Get();
};

// DES arena runs (sim_scratch.cc).
struct SimCounters {
  Counter* runs;
  Counter* tasks;
  static const SimCounters& Get();
};

// Online change detection (detect/change_monitor.cc, detect/alerts.cc). One counter per
// alert kind plus the windows-observed denominator; the detection-latency histogram is
// fed by the campaign harness (bench/perf_detect.cc and the campaign tests), which is
// the only place ground-truth change times exist — the monitor itself never knows them.
struct DetectCounters {
  Counter* windows_observed;          // ChangeMonitor::Observe calls (replacements too)
  Counter* alerts_total;              // every alert raised, any kind
  Counter* rate_shift_alerts;         // AlertKind::kRateShift
  Counter* service_drift_alerts;      // AlertKind::kServiceDrift
  Counter* bottleneck_migration_alerts;  // AlertKind::kBottleneckMigration
  Counter* degraded_run_alerts;       // AlertKind::kDegradedRun
  Histogram* detection_latency_windows;  // windows from scripted change to first alert
  static const DetectCounters& Get();
};

// Shard fleet plumbing (sharded_streaming.cc).
struct ShardCounters {
  Counter* records_routed;  // records delivered to lanes, added per lane close
  static const ShardCounters& Get();
};

// Captures the stream counters' values so a Run() can report per-run deltas — the
// mechanism that populates the stats structs *from* the registry.
struct StreamCounterBaseline {
  std::uint64_t tasks_ingested = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t tail_dropped = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t windows_estimated = 0;
  std::uint64_t degraded_windows = 0;
  std::uint64_t fit_iterations = 0;

  static StreamCounterBaseline Capture();
  std::uint64_t TasksIngestedDelta() const;
  std::uint64_t LateDroppedDelta() const;
  std::uint64_t TailDroppedDelta() const;
  std::uint64_t WindowsClosedDelta() const;
  std::uint64_t WindowsEstimatedDelta() const;
  std::uint64_t DegradedWindowsDelta() const;
  std::uint64_t FitIterationsDelta() const;
};

}  // namespace qnet

#endif  // QNET_TELEMETRY_METRICS_H_
