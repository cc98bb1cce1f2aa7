// Telemetry layer: registry/histogram/export units, span-ring behavior, and the
// pipeline-level contracts the instrumentation must uphold:
//   (i)  telemetry is a one-way tap — estimates are bit-identical at every trace level
//        (including fully disabled), for the plain estimator and the fleet;
//   (ii) the stats structs are views over the registry — a plain-estimator run's
//        StreamingStats matches the registry counter deltas field for field, and a
//        single-lane fleet's FleetStats matches the plain estimator's StreamingStats;
//   (iii) the ingest-side counters (late_dropped / tail_dropped / degraded) count
//        exactly once across lateness policies and degrade modes.
// Timing-surface assertions (histogram Record, span capture) are compiled out together
// with the instrumentation under -DQNET_TELEMETRY=OFF; everything else runs in both
// build modes.

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/one_cpu.h"
#include "support/vector_stream.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"
#include "qnet/telemetry/export.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {
namespace {

using qnet_testing::VectorStream;

// --- registry ----------------------------------------------------------------------------

TEST(MetricRegistry, RegistrationDeduplicatesByName) {
  MetricRegistry registry;
  Counter* a = registry.AddCounter("qnet_test_a_total");
  Counter* again = registry.AddCounter("qnet_test_a_total");
  EXPECT_EQ(a, again);
  EXPECT_EQ(registry.NumCounters(), 1u);
  Gauge* g = registry.AddGauge("qnet_test_g");
  EXPECT_EQ(g, registry.AddGauge("qnet_test_g"));
  EXPECT_EQ(registry.NumGauges(), 1u);
  Histogram* h = registry.AddHistogram("qnet_test_h_ns");
  EXPECT_EQ(h, registry.AddHistogram("qnet_test_h_ns"));
  EXPECT_EQ(registry.NumHistograms(), 1u);
}

TEST(MetricRegistry, CapacityExhaustionThrowsAtRegistration) {
  MetricRegistryCapacity capacity;
  capacity.counters = 2;
  capacity.gauges = 1;
  capacity.histograms = 1;
  MetricRegistry registry(capacity);
  registry.AddCounter("a");
  registry.AddCounter("b");
  registry.AddCounter("a");  // dedup does not consume a slot
  EXPECT_THROW(registry.AddCounter("c"), Error);
  registry.AddGauge("g");
  EXPECT_THROW(registry.AddGauge("g2"), Error);
  registry.AddHistogram("h");
  EXPECT_THROW(registry.AddHistogram("h2"), Error);
}

TEST(MetricRegistry, SnapshotIsNameSortedWithCurrentValues) {
  MetricRegistry registry;
  registry.AddCounter("zeta")->Add(3);
  registry.AddCounter("alpha")->Increment();
  registry.AddGauge("mid")->Set(2.5);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "zeta");
  EXPECT_EQ(snap.counters[1].value, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 2.5);
  ASSERT_NE(snap.FindCounter("zeta"), nullptr);
  EXPECT_EQ(snap.FindCounter("zeta")->value, 3u);
  EXPECT_EQ(snap.FindCounter("missing"), nullptr);
}

TEST(Gauge, SetMaxIsAHighWaterMark) {
  MetricRegistry registry;
  Gauge* g = registry.AddGauge("peak");
  g->SetMax(4.0);
  g->SetMax(2.0);  // lower: no effect
  EXPECT_EQ(g->Value(), 4.0);
  g->SetMax(9.0);
  EXPECT_EQ(g->Value(), 9.0);
}

// --- histogram ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesLandInExactBuckets) {
  // The low range is exact: one bucket per value below 2^(kSubBits + 1).
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(v)), v) << "v=" << v;
    EXPECT_EQ(Histogram::BucketWidth(Histogram::BucketIndex(v)), 1u) << "v=" << v;
  }
}

TEST(Histogram, BucketBoundsAreMonotoneAndCoverTheValue) {
  for (const std::uint64_t v :
       {0ull, 1ull, 15ull, 16ull, 17ull, 1000ull, 123456789ull, (1ull << 40) + 7}) {
    const std::size_t b = Histogram::BucketIndex(v);
    const std::uint64_t lower = Histogram::BucketLowerBound(b);
    const std::uint64_t width = Histogram::BucketWidth(b);
    EXPECT_GE(v, lower) << "v=" << v;
    EXPECT_LT(v - lower, width) << "v=" << v;
    if (b > 0) {
      EXPECT_EQ(Histogram::BucketLowerBound(b - 1) + Histogram::BucketWidth(b - 1), lower);
    }
  }
}

#if QNET_TELEMETRY
TEST(Histogram, RecordedQuantilesTrackTheSample) {
  MetricRegistry registry;
  Histogram* h = registry.AddHistogram("latency_ns");
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h->Record(v);
  }
  const MetricsSnapshot snap = registry.Snapshot();
  const HistogramSample* sample = snap.FindHistogram("latency_ns");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 1000u);
  EXPECT_EQ(sample->sum, 500500u);
  EXPECT_EQ(sample->max, 1000u);
  // Log buckets are ~12.5% wide at kSubBits=3; the midpoint estimate stays within one
  // bucket of the true quantile.
  EXPECT_NEAR(sample->Quantile(0.5), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(sample->Quantile(0.95), 950.0, 950.0 * 0.15);
  // The top bucket answers with the exact observed max.
  EXPECT_EQ(sample->Quantile(1.0), 1000.0);
}
#endif  // QNET_TELEMETRY

// --- exporters ---------------------------------------------------------------------------

MetricsSnapshot MakeExportSnapshot() {
  MetricRegistry registry;
  registry.AddCounter("qnet_demo_events_total")->Add(7);
  registry.AddGauge("qnet_demo_peak")->Set(3.0);
  Histogram* h = registry.AddHistogram("qnet_demo_latency_ns");
#if QNET_TELEMETRY
  h->Record(5);
  h->Record(100);
#else
  (void)h;
#endif
  return registry.Snapshot();
}

TEST(Export, PrometheusTextExposition) {
  const std::string text = ToPrometheusText(MakeExportSnapshot());
  EXPECT_NE(text.find("# TYPE qnet_demo_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("qnet_demo_events_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qnet_demo_peak gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qnet_demo_latency_ns histogram"), std::string::npos);
#if QNET_TELEMETRY
  // Cumulative buckets terminated by +Inf carrying the total count.
  EXPECT_NE(text.find("qnet_demo_latency_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("qnet_demo_latency_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("qnet_demo_latency_ns_sum 105"), std::string::npos);
#endif
}

TEST(Export, JsonIsStableOrderedAndStructured) {
  const std::string json = ToJson(MakeExportSnapshot());
  const std::size_t counters = json.find("\"counters\"");
  const std::size_t gauges = json.find("\"gauges\"");
  const std::size_t histograms = json.find("\"histograms\"");
  ASSERT_NE(counters, std::string::npos);
  ASSERT_NE(gauges, std::string::npos);
  ASSERT_NE(histograms, std::string::npos);
  EXPECT_LT(counters, gauges);
  EXPECT_LT(gauges, histograms);
  EXPECT_NE(json.find("\"qnet_demo_events_total\": 7"), std::string::npos);
  // Same snapshot twice -> byte-identical export (stable ordering).
  EXPECT_EQ(json, ToJson(MakeExportSnapshot()));
}

// --- timeline ----------------------------------------------------------------------------

#if QNET_TELEMETRY
struct TraceLevelGuard {
  int saved = Timeline::Level();
  ~TraceLevelGuard() { Timeline::SetLevel(saved); }
};

TEST(Timeline, LevelGatesStagesByTaxonomy) {
  TraceLevelGuard guard;
  Timeline::SetLevel(1);
  EXPECT_TRUE(Timeline::StageEnabled(SpanStage::kEmit));
  EXPECT_FALSE(Timeline::StageEnabled(SpanStage::kSweepColor));  // level 2
  EXPECT_FALSE(Timeline::StageEnabled(SpanStage::kSweepTile));   // level 3
  Timeline::SetLevel(2);
  EXPECT_TRUE(Timeline::StageEnabled(SpanStage::kSweepColor));
  EXPECT_FALSE(Timeline::StageEnabled(SpanStage::kSweepTile));
  Timeline::SetLevel(3);
  EXPECT_TRUE(Timeline::StageEnabled(SpanStage::kSweepTile));
  Timeline::SetLevel(0);
  EXPECT_FALSE(Timeline::StageEnabled(SpanStage::kEmit));
}

TEST(Timeline, RingKeepsTheMostRecentSpansOnWrap) {
  TraceLevelGuard guard;
  Timeline::SetLevel(1);
  Timeline::ClearSpans();
  const std::size_t total = Timeline::kRingCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    Timeline::RecordSpan(SpanStage::kEmit, i, i + 1);
  }
  const auto threads = Timeline::CollectSpans();
  // Exactly one ring (this thread) holds spans; wrap keeps the newest kRingCapacity.
  std::uint64_t newest = 0;
  std::size_t captured = 0;
  for (const auto& t : threads) {
    for (const SpanRecord& s : t.spans) {
      EXPECT_EQ(s.stage, SpanStage::kEmit);
      newest = std::max(newest, s.start_nanos);
      ++captured;
    }
  }
  EXPECT_EQ(captured, Timeline::kRingCapacity);
  EXPECT_EQ(newest, static_cast<std::uint64_t>(total - 1));
  Timeline::ClearSpans();
}

TEST(Timeline, ExitedThreadsHandTheirRingsToTheNextThread) {
  // A thread's ring returns to the table when the thread exits, so threads started one
  // after another share one ring instead of leaking one each — and the spans of the
  // exited threads stay collectable.
  Timeline::ClearSpans();
  const std::size_t rings_before = Timeline::RingCount();
  constexpr std::uint64_t kThreads = 64;
  for (std::uint64_t i = 0; i < kThreads; ++i) {
    std::thread([i] { Timeline::RecordSpan(SpanStage::kEmit, 1000 + i, 2000 + i); })
        .join();
  }
  EXPECT_LE(Timeline::RingCount(), rings_before + 1);
  std::vector<bool> seen(kThreads, false);
  for (const auto& t : Timeline::CollectSpans()) {
    for (const SpanRecord& s : t.spans) {
      if (s.stage == SpanStage::kEmit && s.start_nanos >= 1000 &&
          s.start_nanos < 1000 + kThreads) {
        seen[s.start_nanos - 1000] = true;
      }
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), static_cast<long>(kThreads));
  Timeline::ClearSpans();
}

TEST(Timeline, ScopedSpanCapturesAndExportsAsChromeTrace) {
  TraceLevelGuard guard;
  Timeline::SetLevel(1);
  Timeline::ClearSpans();
  { ScopedSpan span(SpanStage::kStemFit); }
  { ScopedSpan skipped(SpanStage::kSweepTile); }  // level 3: not captured at level 1
  const auto threads = Timeline::CollectSpans();
  std::size_t stem_spans = 0;
  std::size_t tile_spans = 0;
  for (const auto& t : threads) {
    for (const SpanRecord& s : t.spans) {
      stem_spans += s.stage == SpanStage::kStemFit ? 1 : 0;
      tile_spans += s.stage == SpanStage::kSweepTile ? 1 : 0;
      EXPECT_GE(s.end_nanos, s.start_nanos);
    }
  }
  EXPECT_EQ(stem_spans, 1u);
  EXPECT_EQ(tile_spans, 0u);
  const std::string trace = ToChromeTrace(threads);
  EXPECT_EQ(trace.front(), '{');  // {"traceEvents":[...]} — the Perfetto-loadable shape
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"stem_fit\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  Timeline::ClearSpans();
}

TEST(Timeline, StageSummaryTableListsRecordedStages) {
  { ScopedSpan span(SpanStage::kMeanFieldFit); }
  const std::string table = StageSummaryTable(MetricRegistry::Global().Snapshot());
  EXPECT_NE(table.find("stage"), std::string::npos);
  EXPECT_NE(table.find("p95_us"), std::string::npos);
  EXPECT_NE(table.find("meanfield_fit"), std::string::npos);
}
#endif  // QNET_TELEMETRY

// --- pipeline contracts ------------------------------------------------------------------

struct Fixture {
  EventLog truth;
  Observation obs;

  Fixture(double fraction = 0.5, std::size_t tasks = 400, std::uint64_t seed = 7)
      : truth(MakeLog(tasks, seed)), obs(MakeObs(truth, fraction, seed)) {}

  static EventLog MakeLog(std::size_t tasks, std::uint64_t seed) {
    const QueueingNetwork net = MakeTandemNetwork(4.0, {8.0, 9.0});
    Rng rng(seed);
    return SimulateWorkload(net, PoissonArrivals(4.0, tasks), rng);
  }
  static Observation MakeObs(const EventLog& log, double fraction, std::uint64_t seed) {
    Rng rng(seed + 1);
    TaskSamplingScheme scheme;
    scheme.fraction = fraction;
    return scheme.Apply(log, rng);
  }
};

StreamingEstimatorOptions ShortStemOptions(double window_duration = 25.0) {
  StreamingEstimatorOptions options;
  options.window.window_duration = window_duration;
  options.stem.iterations = 30;
  options.stem.burn_in = 10;
  options.stem.wait_sweeps = 5;
  return options;
}

void ExpectEstimatesIdentical(const std::vector<WindowEstimate>& a,
                              const std::vector<WindowEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].t0, b[w].t0) << "window " << w;
    EXPECT_EQ(a[w].t1, b[w].t1) << "window " << w;
    EXPECT_EQ(a[w].tasks, b[w].tasks) << "window " << w;
    EXPECT_EQ(a[w].degraded, b[w].degraded) << "window " << w;
    EXPECT_EQ(a[w].fit_iterations, b[w].fit_iterations) << "window " << w;
    ASSERT_EQ(a[w].rates.size(), b[w].rates.size());
    for (std::size_t q = 0; q < a[w].rates.size(); ++q) {
      EXPECT_EQ(a[w].rates[q], b[w].rates[q]) << "window " << w << " q=" << q;
    }
    ASSERT_EQ(a[w].mean_wait.size(), b[w].mean_wait.size());
    for (std::size_t q = 0; q < a[w].mean_wait.size(); ++q) {
      EXPECT_EQ(a[w].mean_wait[q], b[w].mean_wait[q]) << "window " << w << " q=" << q;
    }
  }
}

std::vector<WindowEstimate> RunPlain(const Fixture& f,
                                     const StreamingEstimatorOptions& options,
                                     std::uint64_t seed,
                                     StreamingStats* stats = nullptr) {
  LogReplayStream stream(f.truth, f.obs);
  StreamingEstimator estimator({1.0, 1.0, 1.0}, seed, options);
  auto estimates = estimator.Run(stream);
  if (stats != nullptr) {
    *stats = estimator.Stats();
  }
  return estimates;
}

std::vector<WindowEstimate> RunFleet(const Fixture& f, const ShardedStreamingOptions& options,
                                     std::uint64_t seed, FleetStats* stats = nullptr) {
  LogReplayStream stream(f.truth, f.obs);
  ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, seed, options);
  auto estimates = fleet.Run(stream);
  if (stats != nullptr) {
    *stats = fleet.Stats();
  }
  return estimates;
}

#if QNET_TELEMETRY
// The determinism firewall: span capture reads the clock but never feeds anything back
// into sampling, so every trace level — including fully disabled — produces
// bit-identical estimates, with fits on a fit pool of 4 workers on any host (a single
// kOff lane fits inline; kWarmStart's fits go to the pool).
TEST(TelemetryFirewall, PlainEstimatesBitIdenticalAcrossTraceLevels) {
  TraceLevelGuard guard;
  const qnet_testing::ScopedFitPoolWidth pool_width(4);
  const Fixture f;
  for (const FastPathMode mode : {FastPathMode::kOff, FastPathMode::kWarmStart}) {
    StreamingEstimatorOptions options = ShortStemOptions();
    options.fast_path = mode;
    Timeline::SetLevel(0);
    const auto disabled = RunPlain(f, options, 99);
    ASSERT_GE(disabled.size(), 3u);
    Timeline::SetLevel(3);  // every stage armed, tile spans included
    const auto full = RunPlain(f, options, 99);
    Timeline::SetLevel(1);
    const auto normal = RunPlain(f, options, 99);
    ExpectEstimatesIdentical(disabled, full);
    ExpectEstimatesIdentical(disabled, normal);
  }
}

TEST(TelemetryFirewall, FleetEstimatesBitIdenticalAcrossTraceLevels) {
  TraceLevelGuard guard;
  const qnet_testing::ScopedFitPoolWidth pool_width(4);
  const Fixture f;
  ShardedStreamingOptions options;
  options.lanes = 2;
  options.stream = ShortStemOptions();
  Timeline::SetLevel(0);
  const auto disabled = RunFleet(f, options, 99);
  ASSERT_GE(disabled.size(), 3u);
  Timeline::SetLevel(3);
  const auto full = RunFleet(f, options, 99);
  ExpectEstimatesIdentical(disabled, full);
}

// window_assemble means the same thing on both drivers — selecting a window's records
// and building its log — so no fit span may lie inside one on the same thread.
TEST(SpanStages, WindowAssembleExcludesTheFitsAtEveryLaneCount) {
  TraceLevelGuard guard;
  const Fixture f;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    ShardedStreamingOptions options;
    options.lanes = lanes;
    options.stream = ShortStemOptions();
    options.stream.fast_path = FastPathMode::kWarmStart;  // mean-field AND StEM fits
    Timeline::SetLevel(1);
    Timeline::ClearSpans();
    ASSERT_GE(RunFleet(f, options, 99).size(), 3u);
    std::size_t assembles = 0;
    std::size_t fits = 0;
    std::size_t nested = 0;
    for (const Timeline::ThreadSpans& thread : Timeline::CollectSpans()) {
      for (const SpanRecord& outer : thread.spans) {
        if (outer.stage != SpanStage::kWindowAssemble) {
          fits += outer.stage == SpanStage::kStemFit ||
                          outer.stage == SpanStage::kMeanFieldFit
                      ? 1
                      : 0;
          continue;
        }
        ++assembles;
        for (const SpanRecord& inner : thread.spans) {
          const bool fit = inner.stage == SpanStage::kStemFit ||
                           inner.stage == SpanStage::kMeanFieldFit;
          nested += fit && inner.start_nanos >= outer.start_nanos &&
                            inner.end_nanos <= outer.end_nanos
                        ? 1
                        : 0;
        }
      }
    }
    EXPECT_GT(assembles, 0u);
    EXPECT_GT(fits, 0u);
    EXPECT_EQ(nested, 0u);
  }
  Timeline::ClearSpans();
}

// A StEM fit's spans land on the thread that ran it: every fit records one stem_fit span,
// on the caller's thread at W = 1 and on whichever fit-pool worker ran it at W > 1 (the
// caller is worker 0, and test_thread_pool pins that each worker's state stays on its
// own thread). Only the caller records window_assemble, which finds its ring.
TEST(SpanStages, StemFitSpansLandOnTheThreadThatRanTheFit) {
  TraceLevelGuard guard;
  const Fixture f;
  StreamingEstimatorOptions options = ShortStemOptions();
  options.fast_path = FastPathMode::kWarmStart;
  const Counter& stem_fits = *FitCounters::Get().stem_fits;
  // Returns the stem_fit spans on the caller's ring; `spans` gets them on every ring.
  const auto run = [&](std::size_t* spans) {
    Timeline::SetLevel(1);
    Timeline::ClearSpans();
    const std::uint64_t fits_before = stem_fits.Value();
    EXPECT_GE(RunPlain(f, options, 99).size(), 3u);
    std::size_t on_caller = 0;
    *spans = 0;
    for (const Timeline::ThreadSpans& thread : Timeline::CollectSpans()) {
      const bool caller = std::any_of(thread.spans.begin(), thread.spans.end(),
                                      [](const SpanRecord& span) {
                                        return span.stage == SpanStage::kWindowAssemble;
                                      });
      for (const SpanRecord& span : thread.spans) {
        if (span.stage == SpanStage::kStemFit) {
          ++*spans;
          on_caller += caller ? 1 : 0;
        }
      }
    }
    EXPECT_EQ(*spans, stem_fits.Value() - fits_before) << "one span per fit";
    EXPECT_GT(*spans, 0u);
    Timeline::ClearSpans();
    return on_caller;
  };
  std::size_t spans = 0;
  {
    const qnet_testing::ScopedOneCpu one_cpu;
    EXPECT_EQ(run(&spans), spans);
  }
  const qnet_testing::ScopedFitPoolWidth pool_width(4);
  EXPECT_LE(run(&spans), spans);
}
#endif  // QNET_TELEMETRY

// StreamingStats is a view over the registry: a run's stats must equal the global
// counter deltas field for field (the de-duplication contract — one increment site).
TEST(RegistryDerivedStats, PlainRunMatchesCounterDeltas) {
  const Fixture f;
  const StreamCounterBaseline baseline = StreamCounterBaseline::Capture();
  StreamingStats stats;
  RunPlain(f, ShortStemOptions(), 99, &stats);
  EXPECT_EQ(baseline.TasksIngestedDelta(), stats.tasks_ingested);
  EXPECT_EQ(baseline.LateDroppedDelta(), stats.late_dropped);
  EXPECT_EQ(baseline.TailDroppedDelta(), stats.tail_dropped);
  EXPECT_EQ(baseline.WindowsEstimatedDelta(), stats.windows_estimated);
  EXPECT_EQ(baseline.DegradedWindowsDelta(), stats.degraded_windows);
  EXPECT_EQ(baseline.FitIterationsDelta(), stats.fit_iterations_total);
  EXPECT_GT(stats.tasks_ingested, 0u);
  EXPECT_GT(stats.fit_iterations_total, 0u);
}

TEST(RegistryDerivedStats, FleetRunMatchesCounterDeltas) {
  const Fixture f;
  ShardedStreamingOptions options;
  options.lanes = 3;
  options.stream = ShortStemOptions();
  const StreamCounterBaseline baseline = StreamCounterBaseline::Capture();
  FleetStats stats;
  RunFleet(f, options, 99, &stats);
  EXPECT_EQ(baseline.TasksIngestedDelta(), stats.tasks_ingested);
  EXPECT_EQ(baseline.LateDroppedDelta(), stats.late_dropped);
  EXPECT_EQ(baseline.TailDroppedDelta(), stats.tail_dropped);
  EXPECT_EQ(baseline.WindowsEstimatedDelta(), stats.windows_estimated);
  EXPECT_EQ(baseline.DegradedWindowsDelta(), stats.degraded_windows);
  EXPECT_EQ(baseline.FitIterationsDelta(), stats.fit_iterations_total);
}

// Satellite regression: a single-lane fleet's FleetStats must agree with the plain
// estimator's StreamingStats on every shared (non-wall-clock) field — both are views
// over the same tracker/registry counters now, so any divergence is a double count.
TEST(RegistryDerivedStats, SingleLaneFleetStatsMatchPlainEstimatorStats) {
  const Fixture f;
  StreamingStats plain;
  const auto reference = RunPlain(f, ShortStemOptions(), 99, &plain);
  ShardedStreamingOptions options;
  options.lanes = 1;
  options.stream = ShortStemOptions();
  FleetStats fleet;
  const auto pooled = RunFleet(f, options, 99, &fleet);
  ExpectEstimatesIdentical(reference, pooled);
  EXPECT_EQ(fleet.tasks_ingested, plain.tasks_ingested);
  EXPECT_EQ(fleet.windows_estimated, plain.windows_estimated);
  EXPECT_EQ(fleet.late_dropped, plain.late_dropped);
  EXPECT_EQ(fleet.tail_dropped, plain.tail_dropped);
  EXPECT_EQ(fleet.degraded_windows, plain.degraded_windows);
  EXPECT_EQ(fleet.fit_iterations_total, plain.fit_iterations_total);
  ASSERT_EQ(fleet.lane.size(), 1u);
  EXPECT_EQ(fleet.lane[0].tasks_routed,
            plain.tasks_ingested - plain.late_dropped);
  EXPECT_EQ(fleet.lane[0].fit_iterations_total, plain.fit_iterations_total);
  EXPECT_EQ(fleet.lane[0].peak_buffered_tasks, plain.peak_buffered_tasks);
}

// Replays a fixture and fails from the Next after `limit` records, mid-window.
class FailingStream : public TraceStream {
 public:
  FailingStream(const Fixture& f, std::size_t limit)
      : replay_(f.truth, f.obs), limit_(limit) {}
  bool Next(TaskRecord& out) override {
    QNET_CHECK(pulled_ < limit_, "stream failed after ", limit_, " records");
    const bool more = replay_.Next(out);
    pulled_ += more ? 1 : 0;
    return more;
  }
  int NumQueues() const override { return replay_.NumQueues(); }

 private:
  LogReplayStream replay_;
  std::size_t limit_;
  std::size_t pulled_ = 0;
};

// The tracker and the lanes publish their per-record counts in deltas (per window and
// when Run exits), so a run that dies mid-window must still unwind, rethrow the stream's
// error and publish every record it pulled and routed before the error reaches the
// caller. At K = 4 the records the last window routed to lanes 1-3 are published only
// when Run exits; the StEM rows unwind with fits in flight on a pool of 4 workers.
TEST(RegistryDerivedStats, FailedRunPublishesEveryRecordPulledAndRouted) {
  const qnet_testing::ScopedFitPoolWidth pool_width(4);
  const Fixture f;
  constexpr std::size_t kPulled = 250;  // ~100 tasks per window: mid-way through one
  struct Shape {
    std::size_t lanes;
    FastPathMode mode;
  };
  for (const Shape shape : {Shape{1, FastPathMode::kMeanFieldOnly},
                            Shape{4, FastPathMode::kMeanFieldOnly},
                            Shape{2, FastPathMode::kOff}, Shape{4, FastPathMode::kOff}}) {
    SCOPED_TRACE("lanes " + std::to_string(shape.lanes) +
                 (shape.mode == FastPathMode::kOff ? ", StEM" : ""));
    ShardedStreamingOptions options;
    options.lanes = shape.lanes;
    options.stream = ShortStemOptions();
    options.stream.fast_path = shape.mode;
    const StreamCounterBaseline baseline = StreamCounterBaseline::Capture();
    const std::uint64_t routed_before = ShardCounters::Get().records_routed->Value();
    FailingStream stream(f, kPulled);
    ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, 99, options);
    EXPECT_THROW(fleet.Run(stream), Error);
    // An entry-ordered replay drops nothing late, so every pulled record was routed.
    EXPECT_EQ(baseline.TasksIngestedDelta(), kPulled);
    EXPECT_EQ(baseline.LateDroppedDelta(), 0u);
    EXPECT_EQ(ShardCounters::Get().records_routed->Value() - routed_before, kPulled);
  }
}

// --- lateness / tail-drop counters -------------------------------------------------------

TaskRecord TinyRecord(double entry, double service = 0.01) {
  TaskRecord record;
  record.entry_time = entry;
  TaskVisit visit;
  visit.state = 0;
  visit.queue = 1;
  visit.arrival = entry;
  visit.departure = entry + service;
  record.visits.push_back(visit);
  return record;
}

// A tiny stream through the plain estimator, whose lane keeps its records but fits
// every window by mean field (a 0-task degrade budget).
StreamingStats RunTinyStream(const std::vector<double>& entries,
                             const WindowAssemblerOptions& window) {
  std::vector<TaskRecord> records;
  for (const double t : entries) {
    records.push_back(TinyRecord(t));
  }
  VectorStream stream(std::move(records), 2);
  StreamingEstimatorOptions options;
  options.window = window;
  options.fast_path = FastPathMode::kDegrade;
  options.degrade_task_budget = 0;
  StreamingEstimator estimator({1.0, 1.0}, 1, options);
  estimator.Run(stream);
  return estimator.Stats();
}

StreamingStats RunLateStream(LateRecordPolicy policy, StreamCounterBaseline* deltas) {
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 2;
  options.late_policy = policy;
  *deltas = StreamCounterBaseline::Capture();
  // [0,10) closes when 11.0 arrives; the 1.5 record is then late.
  return RunTinyStream({1.0, 2.0, 3.0, 11.0, 1.5, 12.0, 21.0, 22.0, 31.0}, options);
}

TEST(LatenessCounters, DropPolicyCountsLateRecordsExactlyOnce) {
  StreamCounterBaseline deltas;
  const StreamingStats stats = RunLateStream(LateRecordPolicy::kDrop, &deltas);
  EXPECT_EQ(stats.tasks_ingested, 9u);
  EXPECT_EQ(stats.late_dropped, 1u);
  EXPECT_EQ(stats.tail_dropped, 0u);
  EXPECT_EQ(deltas.TasksIngestedDelta(), 9u);
  EXPECT_EQ(deltas.LateDroppedDelta(), 1u);
  EXPECT_EQ(deltas.TailDroppedDelta(), 0u);
}

TEST(LatenessCounters, MergePolicyKeepsLateRecords) {
  StreamCounterBaseline deltas;
  const StreamingStats stats = RunLateStream(LateRecordPolicy::kMergeIntoCurrent, &deltas);
  EXPECT_EQ(stats.tasks_ingested, 9u);
  EXPECT_EQ(stats.late_dropped, 0u);
  EXPECT_EQ(deltas.LateDroppedDelta(), 0u);
}

TEST(LatenessCounters, TailDropCountsAnUnsalvageableRemainder) {
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 3;
  options.merge_trailing_window = false;  // nothing to merge the remainder into
  const StreamCounterBaseline baseline = StreamCounterBaseline::Capture();
  // A 1-task remainder cannot stand alone.
  const StreamingStats stats = RunTinyStream({1.0}, options);
  EXPECT_EQ(stats.tasks_ingested, 1u);
  EXPECT_EQ(stats.tail_dropped, 1u);
  EXPECT_EQ(stats.windows_estimated, 0u);
  EXPECT_EQ(baseline.TailDroppedDelta(), 1u);
}

TEST(LatenessCounters, FleetLatePoliciesMatchPlainEstimatorCounts) {
  // The router runs the same span tracker, so fleet-level drop accounting must match
  // the plain estimator's for the same time-shuffled stream, at any lane count.
  std::vector<TaskRecord> records;
  for (const double t : {1.0, 2.0, 3.0, 4.0, 11.0, 12.0, 2.5, 13.0, 14.0,
                         21.0, 22.0, 23.0, 24.0, 31.0}) {
    records.push_back(TinyRecord(t));
  }
  for (const LateRecordPolicy policy :
       {LateRecordPolicy::kDrop, LateRecordPolicy::kMergeIntoCurrent}) {
    StreamingEstimatorOptions stream_options = ShortStemOptions(10.0);
    stream_options.window.min_tasks_per_window = 2;
    stream_options.window.late_policy = policy;
    stream_options.fast_path = FastPathMode::kMeanFieldOnly;  // keep the fits instant

    VectorStream plain_stream(records, 2);
    StreamingEstimator plain({1.0, 1.0}, 5, stream_options);
    (void)plain.Run(plain_stream);
    const StreamingStats plain_stats = plain.Stats();

    for (const std::size_t lanes : {1u, 2u}) {
      ShardedStreamingOptions fleet_options;
      fleet_options.lanes = lanes;
      fleet_options.stream = stream_options;
      VectorStream fleet_stream(records, 2);
      ShardedStreamingEstimator fleet({1.0, 1.0}, 5, fleet_options);
      (void)fleet.Run(fleet_stream);
      EXPECT_EQ(fleet.Stats().tasks_ingested, plain_stats.tasks_ingested)
          << "lanes=" << lanes;
      EXPECT_EQ(fleet.Stats().late_dropped, plain_stats.late_dropped)
          << "lanes=" << lanes;
      EXPECT_EQ(fleet.Stats().tail_dropped, plain_stats.tail_dropped)
          << "lanes=" << lanes;
    }
    const std::size_t expected_dropped =
        policy == LateRecordPolicy::kDrop ? 1u : 0u;
    EXPECT_EQ(plain_stats.late_dropped, expected_dropped);
  }
}

// --- degraded-fit accounting -------------------------------------------------------------

TEST(DegradeCounters, DegradedFitsConsistentAcrossLaneCounts) {
  const Fixture f;
  StreamingEstimatorOptions stream_options = ShortStemOptions();
  stream_options.fast_path = FastPathMode::kDegrade;
  stream_options.degrade_task_budget = 80;  // ~100 tasks/window: most windows degrade

  std::vector<std::size_t> degraded_windows;
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    ShardedStreamingOptions options;
    options.lanes = lanes;
    options.stream = stream_options;
    FleetStats stats;
    RunFleet(f, options, 99, &stats);
    degraded_windows.push_back(stats.degraded_windows);
    ASSERT_EQ(stats.lane.size(), lanes);
    std::size_t degraded_fits = 0;
    for (const LaneStats& lane : stats.lane) {
      degraded_fits += lane.degraded_fits;
      // Under kDegrade a lane missing a queue answers with a mean-field fallback
      // instead of sitting the window out.
      EXPECT_EQ(lane.skipped_fits, 0u) << "lanes=" << lanes;
    }
    // Every degraded pooled window was produced by at least one degraded lane fit, and
    // a lane can only degrade on windows that exist.
    EXPECT_GE(degraded_fits, stats.degraded_windows) << "lanes=" << lanes;
    EXPECT_LE(degraded_fits, lanes * stats.lane[0].windows_closed) << "lanes=" << lanes;
  }
  // The degrade trigger is the GLOBAL window task count: the same windows degrade at
  // any lane count.
  EXPECT_GT(degraded_windows[0], 0u);
  EXPECT_EQ(degraded_windows[0], degraded_windows[1]);
  EXPECT_EQ(degraded_windows[0], degraded_windows[2]);
}

}  // namespace
}  // namespace qnet
