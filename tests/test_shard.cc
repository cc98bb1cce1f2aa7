// Sharded streaming front-end: lane routing, watermark coordination, and deterministic
// pooled estimates.
//
// The load-bearing assertions are bit-exactness ones, mirroring the repo's established
// threading contracts: (i) a single-lane fleet reproduces the plain StreamingEstimator
// bit-exactly; (ii) for a FIXED lane count K the pooled estimate sequence and the
// FleetStats counts are bit-identical across repeated runs and fit-pool widths (a
// one-CPU mask against the full mask and widths 2 and 4); (iii) window spans, counts, and
// emission indices are bit-identical across DIFFERENT lane counts (the span tracker is
// global). Across lane counts the pooled fits themselves are statistically consistent,
// not bit-equal — each lane fits its own hash-thinned sub-stream by design — which a
// tolerance test pins.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/one_cpu.h"
#include "support/vector_stream.h"
#include "qnet/infer/meanfield.h"
#include "qnet/infer/stem.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/shard/lane_merger.h"
#include "qnet/shard/lane_router.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"
#include "qnet/support/task_hash.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/trace/window_csv.h"

namespace qnet {
namespace {

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

void ExpectEstimatesIdentical(const std::vector<WindowEstimate>& a,
                              const std::vector<WindowEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].t0, b[w].t0) << "window " << w;
    EXPECT_EQ(a[w].t1, b[w].t1) << "window " << w;
    EXPECT_EQ(a[w].tasks, b[w].tasks) << "window " << w;
    EXPECT_EQ(a[w].merged_tail_tasks, b[w].merged_tail_tasks) << "window " << w;
    EXPECT_EQ(a[w].window_local_arrival_rate, b[w].window_local_arrival_rate)
        << "window " << w;
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

StreamingEstimatorOptions ShortStemOptions(double window_duration = 25.0) {
  StreamingEstimatorOptions options;
  options.window.window_duration = window_duration;
  options.stem.iterations = 30;
  options.stem.burn_in = 10;
  options.stem.wait_sweeps = 5;
  return options;
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

// The fields of a run's FleetStats that are pure functions of the stream and the
// options (every field but the wall-clock ones).
void ExpectStatsCountsIdentical(const FleetStats& a, const FleetStats& b) {
  EXPECT_EQ(a.lanes, b.lanes);
  EXPECT_EQ(a.tasks_ingested, b.tasks_ingested);
  EXPECT_EQ(a.windows_estimated, b.windows_estimated);
  EXPECT_EQ(a.late_dropped, b.late_dropped);
  EXPECT_EQ(a.tail_dropped, b.tail_dropped);
  EXPECT_EQ(a.degraded_windows, b.degraded_windows);
  EXPECT_EQ(a.fit_iterations_total, b.fit_iterations_total);
  ASSERT_EQ(a.lane.size(), b.lane.size());
  for (std::size_t lane = 0; lane < a.lane.size(); ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    EXPECT_EQ(a.lane[lane].tasks_routed, b.lane[lane].tasks_routed);
    EXPECT_EQ(a.lane[lane].windows_closed, b.lane[lane].windows_closed);
    EXPECT_EQ(a.lane[lane].empty_windows, b.lane[lane].empty_windows);
    EXPECT_EQ(a.lane[lane].skipped_fits, b.lane[lane].skipped_fits);
    EXPECT_EQ(a.lane[lane].degraded_fits, b.lane[lane].degraded_fits);
    EXPECT_EQ(a.lane[lane].fit_iterations_total, b.lane[lane].fit_iterations_total);
    EXPECT_EQ(a.lane[lane].peak_buffered_tasks, b.lane[lane].peak_buffered_tasks);
    EXPECT_EQ(a.lane[lane].peak_queue_depth, 0u);
    EXPECT_EQ(b.lane[lane].peak_queue_depth, 0u);
    EXPECT_EQ(a.lane[lane].max_watermark_lag, b.lane[lane].max_watermark_lag);
  }
}

// --- Single-lane equivalence -------------------------------------------------------------

TEST(ShardedStreaming, SingleLaneMatchesStreamingEstimatorBitExactly) {
  const Fixture f;
  for (const bool window_local : {false, true}) {
    StreamingEstimatorOptions stream_options = ShortStemOptions();
    stream_options.window_local_arrival_rate = window_local;

    LogReplayStream plain_stream(f.truth, f.obs);
    StreamingEstimator plain({1.0, 1.0, 1.0}, 99, stream_options);
    const auto reference = plain.Run(plain_stream);
    ASSERT_GE(reference.size(), 3u);

    ShardedStreamingOptions fleet_options;
    fleet_options.lanes = 1;
    fleet_options.stream = stream_options;
    const auto pooled = RunFleet(f, fleet_options, 99);
    ExpectEstimatesIdentical(reference, pooled);
  }
}

// --- Fixed-K determinism and the arrangement ------------------------------------------

TEST(ShardedStreaming, PooledEstimatesBitIdenticalAcrossRepeatedRuns) {
  // The acceptance grid: K in {1,2,4} lanes, each run twice. For each K the pooled
  // sequence must be bit-identical run to run, whatever the fit pool's width. At K = 1
  // the plain estimator is the same fleet and must agree bit for bit, stats counts
  // included.
  const Fixture f;
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    ShardedStreamingOptions options;
    options.lanes = lanes;
    options.stream = ShortStemOptions();
    FleetStats fleet_stats;
    const std::vector<WindowEstimate> first = RunFleet(f, options, 42, &fleet_stats);
    ASSERT_GE(first.size(), 3u) << "lanes=" << lanes;
    ExpectEstimatesIdentical(first, RunFleet(f, options, 42));
    if (lanes == 1) {
      LogReplayStream stream(f.truth, f.obs);
      StreamingEstimator plain({1.0, 1.0, 1.0}, 42, options.stream);
      ExpectEstimatesIdentical(first, plain.Run(stream));
      const StreamingStats& stats = plain.Stats();
      EXPECT_EQ(stats.tasks_ingested, fleet_stats.tasks_ingested);
      EXPECT_EQ(stats.windows_estimated, fleet_stats.windows_estimated);
      EXPECT_EQ(stats.late_dropped, fleet_stats.late_dropped);
      EXPECT_EQ(stats.tail_dropped, fleet_stats.tail_dropped);
      EXPECT_EQ(stats.peak_buffered_tasks, fleet_stats.lane[0].peak_buffered_tasks);
      EXPECT_EQ(stats.degraded_windows, fleet_stats.degraded_windows);
      EXPECT_EQ(stats.fit_iterations_total, fleet_stats.fit_iterations_total);
    }
  }
}

// Runs `run` (one fleet run; fills its stats) under a one-CPU mask — W = 1, every fit
// inline, in order — and then under the thread's full mask and at fit-pool widths 2 and 4
// (the test seam, so those widths run on any host, a one-core one included). Every run
// must match the first bit for bit, in the estimates and in every FleetStats count.
template <typename Run>
void ExpectEveryPoolWidthMatchesInline(const Run& run, std::size_t min_windows) {
  FleetStats inline_stats;
  std::vector<WindowEstimate> inline_run;
  {
    const qnet_testing::ScopedOneCpu one_cpu;
    ASSERT_EQ(AffinityWidth(), 1u);
    inline_run = run(&inline_stats);
  }
  ASSERT_GE(inline_run.size(), min_windows);
  EXPECT_EQ(inline_stats.router_blocked_seconds, 0.0);
  for (const std::size_t width : {0u, 2u, 4u}) {
    SCOPED_TRACE(width == 0 ? "full mask, width " + std::to_string(AffinityWidth())
                            : "width " + std::to_string(width));
    FleetStats stats;
    std::vector<WindowEstimate> pooled;
    if (width == 0) {
      pooled = run(&stats);
    } else {
      const qnet_testing::ScopedFitPoolWidth pool_width(width);
      pooled = run(&stats);
    }
    ExpectEstimatesIdentical(inline_run, pooled);
    ExpectStatsCountsIdentical(inline_stats, stats);
  }
}

TEST(ShardedStreaming, EveryFitPoolWidthIsBitIdentical) {
  // The fit pool's width W is the calling thread's CPU count, so a run at W > 1 (StEM fits
  // on pool workers, out of order, up to 2W in flight) must match a run at W = 1 bit for
  // bit, for every lane count and fast-path mode. kWarmStart's fits run alongside their
  // lane's earlier ones; kOff's, and those whose mean-field fit left a queue unfit, start
  // after their lane's previous fit and read its rates (the dependency edge); degraded
  // windows and merged tails collect the fits in flight first; kMeanFieldOnly submits
  // nothing.
  const Fixture f;
  for (const FastPathMode mode : {FastPathMode::kOff, FastPathMode::kWarmStart,
                                  FastPathMode::kDegrade, FastPathMode::kMeanFieldOnly}) {
    for (const std::size_t lanes : {1u, 2u, 4u}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) + ", lanes " +
                   std::to_string(lanes));
      ShardedStreamingOptions options;
      options.lanes = lanes;
      options.stream = ShortStemOptions();
      options.stream.fast_path = mode;
      options.stream.degrade_task_budget = 100;  // ~100 tasks/window: some degrade
      options.stream.stem.convergence_tol = 0.05;
      ExpectEveryPoolWidthMatchesInline(
          [&](FleetStats* stats) { return RunFleet(f, options, 31, stats); }, 3);
    }
  }
  // Short windows on a wide network: lane windows often miss a queue (a skipped fit) or
  // hold few tasks, the caller outruns the pool and keeps hitting the bound of 2W
  // unfinished fits, and each lane's kOff fits form a chain on the pool, each started
  // after the one before it.
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const QueueingNetwork wide = MakeThreeTierNetwork(config);
  Rng sim_rng(12345);
  Fixture busy;
  busy.truth = SimulateWorkload(wide, PoissonArrivals(10.0, 2000), sim_rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.25;
  busy.obs = scheme.Apply(busy.truth, sim_rng);
  for (const FastPathMode mode : {FastPathMode::kOff, FastPathMode::kWarmStart}) {
    for (const std::size_t lanes : {1u, 2u, 4u}) {
      SCOPED_TRACE("wide network, mode " + std::to_string(static_cast<int>(mode)) +
                   ", lanes " + std::to_string(lanes));
      ShardedStreamingOptions options;
      options.lanes = lanes;
      options.stream = ShortStemOptions(5.0);
      options.stream.stem.iterations = 12;
      options.stream.stem.burn_in = 4;
      options.stream.stem.wait_sweeps = 0;
      options.stream.fast_path = mode;
      std::vector<double> init(static_cast<std::size_t>(wide.NumQueues()), 1.0);
      ExpectEveryPoolWidthMatchesInline(
          [&](FleetStats* stats) {
            LogReplayStream stream(busy.truth, busy.obs);
            ShardedStreamingEstimator fleet(init, 17, options);
            std::vector<WindowEstimate> estimates = fleet.Run(stream);
            *stats = fleet.Stats();
            return estimates;
          },
          10);
    }
  }
  // The queue knobs of the deleted threaded lanes stay assignable and change nothing.
  ShardedStreamingOptions options;
  options.lanes = 2;
  options.stream = ShortStemOptions();
  const std::vector<WindowEstimate> reference = RunFleet(f, options, 7);
  options.lane_queue_capacity = 2;
  options.router_batch = 1;
  ExpectEstimatesIdentical(reference, RunFleet(f, options, 7));
}

// --- Cross-K contracts -------------------------------------------------------------------

TEST(ShardedStreaming, WindowSpansCountsAndIndicesIdenticalAcrossLaneCounts) {
  // The span tracker runs on the global stream, so window boundaries are a pure function
  // of the trace and the options — bit-identical for ANY lane count.
  const Fixture f;
  std::vector<std::vector<WindowEstimate>> runs;
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    ShardedStreamingOptions options;
    options.lanes = lanes;
    options.stream = ShortStemOptions();
    runs.push_back(RunFleet(f, options, 11));
  }
  ASSERT_GE(runs.front().size(), 3u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs.front().size(), runs[i].size());
    for (std::size_t w = 0; w < runs.front().size(); ++w) {
      EXPECT_EQ(runs.front()[w].t0, runs[i][w].t0);
      EXPECT_EQ(runs.front()[w].t1, runs[i][w].t1);
      EXPECT_EQ(runs.front()[w].tasks, runs[i][w].tasks);
      EXPECT_EQ(runs.front()[w].merged_tail_tasks, runs[i][w].merged_tail_tasks);
    }
  }
}

TEST(ShardedStreaming, PooledRatesStatisticallyConsistentAcrossLaneCounts) {
  // Different K fit different hash-thinned sub-streams, so pooled fits are not bit-equal
  // across K — but they estimate the same network and must agree on a well-observed
  // trace. The decomposition is accurate in light traffic and biases service estimates
  // up as utilization grows (a lane's sub-log attributes cross-lane queueing delay to
  // service; see docs/architecture.md), so this pins the light-traffic regime: rho = 0.1
  // per stage, where waits are ~10% of service.
  QueueingNetwork net = MakeTandemNetwork(4.0, {40.0, 45.0});
  Rng sim_rng(3);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 800), sim_rng);
  Fixture f;
  f.truth = truth;
  f.obs = Observation::FullyObserved(truth);

  std::vector<std::vector<WindowEstimate>> runs;
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    ShardedStreamingOptions options;
    options.lanes = lanes;
    options.stream = ShortStemOptions(50.0);
    options.stream.window_local_arrival_rate = true;
    runs.push_back(RunFleet(f, options, 17));
  }
  ASSERT_GE(runs.front().size(), 2u);
  // Cross-K agreement is checked on each queue's window-averaged mean service time: a
  // per-window comparison is a lottery over which tasks the hash sends to which lane.
  // Over 2000 salted hash partitions (lane = TaskLane(HashCombine(TaskHash, salt), K))
  // the K = 2/4 averages sit 0.0008-0.0016 above K = 1 (about the other lanes' share of
  // the ~0.0026 mean wait, which a lane's sub-log counts as service), with a partition sd
  // of ~0.0002 and a worst |difference| of 0.00229; the bound is that worst case plus
  // one sd.
  constexpr double kCrossLaneServiceBound = 0.0025;
  const auto mean_service = [](const std::vector<WindowEstimate>& run, std::size_t q) {
    double sum = 0.0;
    for (const WindowEstimate& estimate : run) {
      sum += 1.0 / estimate.rates[q];
    }
    return sum / static_cast<double>(run.size());
  };
  // Window-local anchoring keeps each window's pooled lambda on that window's realized
  // arrival rate, tasks / (t1 - t0), for every K. The nominal rate 4 is no anchor: window
  // 0 holds 241 tasks in 50 s, a +2.9 sd Poisson excursion. Each lane's fit measures n_k
  // over (its last entry - t0), so the pooled sum sits above the realized rate. Over
  // 2000 salted hash partitions per K (16000 windows) lambda - realized averaged +0.043
  // (sd 0.030) at K = 2 and +0.078 (sd 0.043) at K = 4, with a worst |difference| of
  // 0.342; the bound is that worst case plus one sd, rounded up.
  constexpr double kRealizedArrivalRateBound = 0.4;
  for (const auto& run : runs) {
    ASSERT_EQ(run.size(), runs.front().size());
    for (std::size_t w = 0; w < run.size(); ++w) {
      // True rates: lambda 4, mu1 40, mu2 45.
      const double realized =
          static_cast<double>(run[w].tasks) / (run[w].t1 - run[w].t0);
      EXPECT_NEAR(run[w].rates[0], realized, kRealizedArrivalRateBound) << "window " << w;
      EXPECT_NEAR(1.0 / run[w].rates[1], 1.0 / 40.0, 0.006) << "window " << w;
      EXPECT_NEAR(1.0 / run[w].rates[2], 1.0 / 45.0, 0.006) << "window " << w;
    }
    for (const std::size_t q : {1u, 2u}) {
      EXPECT_NEAR(mean_service(run, q), mean_service(runs.front(), q), kCrossLaneServiceBound)
          << "q=" << q;
    }
  }
}

// --- Lane coordination -------------------------------------------------------------------

TEST(ShardedStreaming, EmptyLanesNeverStallTheFleet) {
  // Force every record onto lane 0 of a 2-lane fleet: lane 1 is empty in EVERY window
  // and must still answer every close token immediately.
  const Fixture f;
  ShardedStreamingOptions options;
  options.lanes = 2;
  options.stream = ShortStemOptions();
  options.lane_of = [](const TaskRecord&) { return std::size_t{0}; };

  FleetStats stats;
  const auto pooled = RunFleet(f, options, 23, &stats);
  ASSERT_GE(pooled.size(), 3u);
  EXPECT_EQ(stats.lane[1].tasks_routed, 0u);
  EXPECT_GT(stats.lane[1].windows_closed, 0u);
  EXPECT_EQ(stats.lane[1].empty_windows, stats.lane[1].windows_closed);
  EXPECT_EQ(stats.lane[0].tasks_routed, stats.tasks_ingested);
  for (const WindowEstimate& estimate : pooled) {
    ASSERT_EQ(estimate.rates.size(), 3u);
    for (const double rate : estimate.rates) {
      EXPECT_TRUE(std::isfinite(rate));
      EXPECT_GT(rate, 0.0);
    }
  }
  // Determinism with the forced routing.
  const auto again = RunFleet(f, options, 23);
  ExpectEstimatesIdentical(pooled, again);
}

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

TEST(ShardedStreaming, LateRecordPoliciesMatchAssemblerSemantics) {
  // A record behind the closed span: dropped (and counted) under kDrop, folded into the
  // open window under kMergeIntoCurrent — with every task accounted for in the pooled
  // windows either way.
  std::vector<TaskRecord> records;
  for (const double t : {1.0, 2.0, 3.0, 11.0, 12.0, 13.0}) {
    records.push_back(TinyRecord(t));
  }
  records.push_back(TinyRecord(21.0));  // closes [10,20) under a 10s window
  records.push_back(TinyRecord(5.0));   // late: its window [0,10) has closed
  records.push_back(TinyRecord(22.0));
  records.push_back(TinyRecord(23.0));

  for (const LateRecordPolicy policy :
       {LateRecordPolicy::kDrop, LateRecordPolicy::kMergeIntoCurrent}) {
    ShardedStreamingOptions options;
    options.lanes = 2;
    options.stream.window.window_duration = 10.0;
    options.stream.window.min_tasks_per_window = 3;
    options.stream.window.late_policy = policy;
    options.stream.stem.iterations = 10;
    options.stream.stem.burn_in = 2;
    options.stream.stem.wait_sweeps = 0;

    qnet_testing::VectorStream stream(records, 2);
    ShardedStreamingEstimator fleet({1.0, 1.0}, 31, options);
    const auto pooled = fleet.Run(stream);
    const FleetStats& stats = fleet.Stats();
    EXPECT_EQ(stats.tasks_ingested, records.size());
    std::size_t pooled_tasks = 0;
    for (const WindowEstimate& estimate : pooled) {
      pooled_tasks += estimate.tasks;
    }
    if (policy == LateRecordPolicy::kDrop) {
      EXPECT_EQ(stats.late_dropped, 1u);
      EXPECT_EQ(pooled_tasks, records.size() - 1);
    } else {
      EXPECT_EQ(stats.late_dropped, 0u);
      EXPECT_EQ(pooled_tasks, records.size());
    }
  }
}

TEST(ShardedStreaming, WindowWithNoFittableLaneFailsLoudly) {
  // Every record visits only queue 1 of a 3-queue network, so every lane's sub-log
  // misses queue 2 and no lane can fit any window — the fleet must fail like the plain
  // estimator does (inside StEM's M-step), not silently emit zero service rates.
  std::vector<TaskRecord> records;
  for (int i = 0; i < 12; ++i) {
    records.push_back(TinyRecord(1.0 + i));
  }
  ShardedStreamingOptions options;
  options.lanes = 2;
  options.stream.window.window_duration = 5.0;
  options.stream.window.min_tasks_per_window = 2;
  options.stream.stem.iterations = 5;
  options.stream.stem.burn_in = 1;
  options.stream.stem.wait_sweeps = 0;
  qnet_testing::VectorStream stream(records, 3);  // queue 2 exists but is never visited
  ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, 1, options);
  EXPECT_THROW(fleet.Run(stream), Error);
}

TEST(ShardedStreaming, UnfittableWindowsDegradeInsteadOfThrowingUnderFastPath) {
  // The same never-visits-queue-2 stream as WindowWithNoFittableLaneFailsLoudly: under
  // the degrade policy the lanes answer with mean-field fallback fits instead of
  // throwing — queue 2 keeps each lane's warm-chain rate (the init here) and the pooled
  // estimates are flagged degraded.
  std::vector<TaskRecord> records;
  for (int i = 0; i < 12; ++i) {
    records.push_back(TinyRecord(1.0 + i));
  }
  for (const FastPathMode mode : {FastPathMode::kDegrade, FastPathMode::kMeanFieldOnly}) {
    ShardedStreamingOptions options;
    options.lanes = 2;
    options.stream.window.window_duration = 5.0;
    options.stream.window.min_tasks_per_window = 2;
    options.stream.stem.iterations = 5;
    options.stream.stem.burn_in = 1;
    options.stream.stem.wait_sweeps = 0;
    options.stream.fast_path = mode;

    qnet_testing::VectorStream stream(records, 3);
    ShardedStreamingEstimator fleet({1.0, 1.0, 1.0}, 1, options);
    const auto pooled = fleet.Run(stream);
    ASSERT_GE(pooled.size(), 1u);
    for (const WindowEstimate& estimate : pooled) {
      EXPECT_TRUE(estimate.degraded);
      EXPECT_EQ(estimate.fit_iterations, 0u);
      ASSERT_EQ(estimate.rates.size(), 3u);
      EXPECT_GT(estimate.rates[1], 0.0);
      EXPECT_EQ(estimate.rates[2], 1.0);  // warm chain = init; never fitted
    }
    const FleetStats& stats = fleet.Stats();
    EXPECT_EQ(stats.degraded_windows, pooled.size());
    std::size_t lane_degraded = 0;
    for (const LaneStats& lane : stats.lane) {
      lane_degraded += lane.degraded_fits;
      EXPECT_EQ(lane.fit_iterations_total, 0u);
    }
    EXPECT_GE(lane_degraded, pooled.size());
  }
}

TEST(StreamingEstimator, WindowMissingAQueueDegradesUnderFastPathAndThrowsOtherwise) {
  // The never-visits-queue-2 stream through the plain estimator, which is the single
  // lane fleet: the degrade policies emit mean-field estimates with queue 2 held at its
  // warm-chain rate; without them no fit is possible and the run fails loudly.
  std::vector<TaskRecord> records;
  for (int i = 0; i < 12; ++i) {
    records.push_back(TinyRecord(1.0 + i));
  }
  for (const FastPathMode mode : {FastPathMode::kOff, FastPathMode::kWarmStart,
                                  FastPathMode::kDegrade, FastPathMode::kMeanFieldOnly}) {
    StreamingEstimatorOptions options;
    options.window.window_duration = 5.0;
    options.window.min_tasks_per_window = 2;
    options.stem.iterations = 5;
    options.stem.burn_in = 1;
    options.stem.wait_sweeps = 0;
    options.fast_path = mode;
    qnet_testing::VectorStream stream(records, 3);
    StreamingEstimator estimator({1.0, 1.0, 1.0}, 1, options);
    if (mode == FastPathMode::kOff || mode == FastPathMode::kWarmStart) {
      EXPECT_THROW(estimator.Run(stream), Error);
      continue;
    }
    const auto estimates = estimator.Run(stream);
    ASSERT_GE(estimates.size(), 1u);
    for (const WindowEstimate& estimate : estimates) {
      EXPECT_TRUE(estimate.degraded);
      EXPECT_EQ(estimate.fit_iterations, 0u);
      ASSERT_EQ(estimate.rates.size(), 3u);
      EXPECT_GT(estimate.rates[1], 0.0);
      EXPECT_EQ(estimate.rates[2], 1.0);  // warm chain = init; never fitted
    }
    EXPECT_EQ(estimator.Stats().degraded_windows, estimates.size());
  }
}

TEST(ShardedStreaming, TrailingTailMergeReplacesLastPooledEstimate) {
  // A too-small trailing remainder merges into the previous window and the pooled
  // estimate sequence replaces its last entry, exactly like the plain estimator; the
  // on_window hook sees the windows in order plus the replacement.
  const Fixture f;
  ShardedStreamingOptions options;
  options.lanes = 2;
  // 27s windows over a ~100s trace leave a high-probability small tail.
  options.stream = ShortStemOptions(27.0);
  options.stream.window.min_tasks_per_window = 60;

  std::vector<WindowEstimate> seen;
  options.stream.on_window = [&seen](const WindowEstimate& estimate) {
    seen.push_back(estimate);
  };
  FleetStats stats;
  const auto pooled = RunFleet(f, options, 13, &stats);
  ASSERT_GE(pooled.size(), 2u);

  std::size_t total_tasks = 0;
  for (const WindowEstimate& estimate : pooled) {
    total_tasks += estimate.tasks;
  }
  EXPECT_EQ(total_tasks + stats.tail_dropped,
            static_cast<std::size_t>(f.truth.NumTasks()));
  // Hook calls: one per emitted window, plus one more if the tail was merged.
  const bool merged = pooled.back().merged_tail_tasks > 0;
  EXPECT_EQ(seen.size(), pooled.size() + (merged ? 1u : 0u));
  // The final hook call is the final estimate.
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back().t0, pooled.back().t0);
  EXPECT_EQ(seen.back().tasks, pooled.back().tasks);
}

TEST(ShardedStreaming, FleetStatsAccountTasksAndWindows) {
  // StEM lanes fit on the pool; sampler-free lanes submit nothing.
  const Fixture f;
  for (const FastPathMode mode : {FastPathMode::kOff, FastPathMode::kMeanFieldOnly}) {
    const bool sampler_free = mode == FastPathMode::kMeanFieldOnly;
    SCOPED_TRACE(sampler_free ? "mean-field only" : "StEM");
    ShardedStreamingOptions options;
    options.lanes = 4;
    options.stream = ShortStemOptions();
    options.stream.fast_path = mode;
    FleetStats stats;
    const auto pooled = RunFleet(f, options, 2, &stats);

    EXPECT_EQ(stats.lanes, 4u);
    EXPECT_EQ(stats.tasks_ingested, static_cast<std::size_t>(f.truth.NumTasks()));
    EXPECT_EQ(stats.windows_estimated, pooled.size());
    EXPECT_GT(stats.tasks_per_second, 0.0);
    std::size_t routed = 0;
    for (const LaneStats& lane : stats.lane) {
      routed += lane.tasks_routed;
      EXPECT_EQ(lane.windows_closed, stats.lane.front().windows_closed);
    }
    // Every close is an emitted window, or the merged tail that replaced the last one.
    ASSERT_FALSE(pooled.empty());
    EXPECT_EQ(stats.lane.front().windows_closed,
              pooled.size() + (pooled.back().merged_tail_tasks > 0 ? 1u : 0u));
    if (sampler_free) {
      EXPECT_EQ(stats.router_blocked_seconds, 0.0);  // no fit was ever in flight
    }
    EXPECT_EQ(routed, stats.tasks_ingested - stats.late_dropped);
    // The hash spreads a 400-task trace over 4 lanes without collapsing onto one.
    for (const LaneStats& lane : stats.lane) {
      EXPECT_GT(lane.tasks_routed, 40u);
      EXPECT_EQ(lane.peak_queue_depth, 0u);  // lanes have no queue
      // A sampler-free lane folds each record as it takes it and buffers only records
      // held past the open span, which an entry-ordered stream without lateness never
      // routes; a StEM lane buffers its windows' records.
      if (sampler_free) {
        EXPECT_EQ(lane.peak_buffered_tasks, 0u);
      } else {
        EXPECT_GT(lane.peak_buffered_tasks, 0u);
      }
    }
  }
}

// --- Span tracker ------------------------------------------------------------------------

TEST(WindowSpanTracker, DecisionsMatchTheEstimatorWindowsOnABurstyStream) {
  // Property check: a standalone tracker fed the same entry times as the plain
  // estimator decides exactly the windows the estimator emits (spans, counts, emission
  // order), including deferred closes, small-window extension, late merges and the
  // trailing merge. The estimator's lane keeps its records and selects each window's
  // share itself, so its task counts check that selection against the tracker's.
  WindowAssemblerOptions options;
  options.window_duration = 10.0;
  options.min_tasks_per_window = 3;
  options.allowed_lateness = 2.0;
  options.late_policy = LateRecordPolicy::kMergeIntoCurrent;

  Rng rng(77);
  std::vector<TaskRecord> records;
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    // Bursty: occasional long gaps, occasional mild disorder within the lateness bound.
    t += rng.Exponential(rng.Bernoulli(0.1) ? 0.05 : 1.5);
    const double jitter = rng.Bernoulli(0.3) ? -rng.Uniform(0.0, 1.5) : 0.0;
    records.push_back(TinyRecord(std::max(0.0, t + jitter)));
  }

  WindowSpanTracker tracker(options);
  std::vector<WindowSpanTracker::SpanDecision> decisions;
  for (const TaskRecord& record : records) {
    tracker.Push(record.entry_time);
    while (tracker.HasClosed()) {
      decisions.push_back(tracker.PopClosed());
    }
  }
  tracker.Finish();
  while (tracker.HasClosed()) {
    decisions.push_back(tracker.PopClosed());
  }

  StreamingEstimatorOptions estimator_options;
  estimator_options.window = options;
  estimator_options.fast_path = FastPathMode::kDegrade;
  estimator_options.degrade_task_budget = 0;  // keeps records, fits by mean field
  std::vector<WindowEstimate> windows;  // every emission, merged-tail re-fit included
  estimator_options.on_window = [&windows](const WindowEstimate& estimate) {
    windows.push_back(estimate);
  };
  qnet_testing::VectorStream stream(records, 2);
  StreamingEstimator estimator({1.0, 1.0}, 5, estimator_options);
  estimator.Run(stream);

  ASSERT_GE(windows.size(), 5u);
  ASSERT_EQ(windows.size(), decisions.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].t0, decisions[w].t0) << "window " << w;
    EXPECT_EQ(windows[w].t1, decisions[w].t1) << "window " << w;
    EXPECT_EQ(windows[w].tasks, decisions[w].count) << "window " << w;
    EXPECT_EQ(windows[w].merged_tail_tasks, decisions[w].merged_tail_tasks);
  }
  EXPECT_EQ(estimator.Stats().tail_dropped, tracker.TailDropped());
  EXPECT_EQ(estimator.Stats().windows_estimated, tracker.WindowsClosed());
}

// --- Lane router -------------------------------------------------------------------------

TEST(LaneRouter, HashRoutingIsStableAndCounted) {
  const Fixture f(1.0, 100);
  LaneRouterOptions options;
  options.lanes = 4;
  LaneRouter router(options);
  LaneRouter router_again(options);
  LogReplayStream stream(f.truth, f.obs);
  TaskRecord record;
  std::size_t total = 0;
  while (stream.Next(record)) {
    const std::size_t lane = router.Route(record);
    EXPECT_LT(lane, 4u);
    EXPECT_EQ(lane, router_again.Route(record));
    EXPECT_EQ(lane, TaskLane(TaskHash(record), 4));
    ++total;
  }
  std::size_t counted = 0;
  for (const std::size_t count : router.LaneCounts()) {
    counted += count;
  }
  EXPECT_EQ(counted, total);
}

TEST(LaneRouter, SingleLaneSkipsTheHashWithUnchangedCounts) {
  // One lane routes without hashing; the hashed route it replaces (TaskLane(h, 1) == 0)
  // must give the same lane and the same counts. A caller's partition is still called.
  const Fixture f(1.0, 100);
  LaneRouterOptions options;
  options.lanes = 1;
  LaneRouter router(options);
  LaneRouterOptions hashed_options;
  hashed_options.lanes = 1;
  hashed_options.lane_of = [](const TaskRecord& r) { return TaskLane(TaskHash(r), 1); };
  LaneRouter hashed(hashed_options);
  std::size_t override_calls = 0;
  LaneRouterOptions override_options;
  override_options.lanes = 1;
  override_options.lane_of = [&](const TaskRecord&) {
    ++override_calls;
    return std::size_t{0};
  };
  LaneRouter overridden(override_options);
  LogReplayStream stream(f.truth, f.obs);
  TaskRecord record;
  std::size_t total = 0;
  while (stream.Next(record)) {
    EXPECT_EQ(router.Route(record), 0u);
    EXPECT_EQ(hashed.Route(record), 0u);
    EXPECT_EQ(overridden.Route(record), 0u);
    ++total;
  }
  ASSERT_GT(total, 0u);
  EXPECT_EQ(router.LaneCounts(), std::vector<std::size_t>{total});
  EXPECT_EQ(router.LaneCounts(), hashed.LaneCounts());
  EXPECT_EQ(overridden.LaneCounts(), hashed.LaneCounts());
  EXPECT_EQ(override_calls, total);
}

TEST(LaneRouter, RejectsOutOfRangePartitioner) {
  LaneRouterOptions options;
  options.lanes = 2;
  options.lane_of = [](const TaskRecord&) { return std::size_t{5}; };
  LaneRouter router(options);
  EXPECT_THROW(router.Route(TinyRecord(1.0)), Error);
}

// --- Mean-field fast path across the fleet -----------------------------------------------

TEST(ShardedStreaming, SingleLaneFastPathMatchesStreamingEstimatorBitExactly) {
  // The K = 1 anchor extends to every fast-path mode: a single-lane fleet is the plain
  // estimator, bit for bit.
  const Fixture f;
  for (const FastPathMode mode :
       {FastPathMode::kWarmStart, FastPathMode::kDegrade, FastPathMode::kMeanFieldOnly}) {
    StreamingEstimatorOptions stream_options = ShortStemOptions();
    stream_options.fast_path = mode;
    stream_options.degrade_task_budget = 100;
    stream_options.stem.convergence_tol = 0.05;

    LogReplayStream plain_stream(f.truth, f.obs);
    StreamingEstimator plain({1.0, 1.0, 1.0}, 83, stream_options);
    const auto reference = plain.Run(plain_stream);
    ASSERT_GE(reference.size(), 3u);

    ShardedStreamingOptions fleet_options;
    fleet_options.lanes = 1;
    fleet_options.stream = stream_options;
    const auto pooled = RunFleet(f, fleet_options, 83);
    ExpectEstimatesIdentical(reference, pooled);
  }
}

TEST(ShardedStreaming, FastPathDegradedFlagsAgreeAcrossLaneCounts) {
  // Across lane counts the degraded flags agree, because the degrade trigger is the
  // GLOBAL window task count, not any lane-local share.
  const Fixture f;
  for (const FastPathMode mode : {FastPathMode::kDegrade, FastPathMode::kMeanFieldOnly}) {
    std::vector<std::vector<WindowEstimate>> per_lane_count;
    for (const std::size_t lanes : {1u, 2u, 4u}) {
      ShardedStreamingOptions options;
      options.lanes = lanes;
      options.stream = ShortStemOptions();
      options.stream.fast_path = mode;
      options.stream.degrade_task_budget = 100;
      per_lane_count.push_back(RunFleet(f, options, 21));
      ASSERT_GE(per_lane_count.back().size(), 3u);
    }
    ASSERT_EQ(per_lane_count[0].size(), per_lane_count[1].size());
    ASSERT_EQ(per_lane_count[0].size(), per_lane_count[2].size());
    std::size_t degraded = 0;
    for (std::size_t w = 0; w < per_lane_count[0].size(); ++w) {
      EXPECT_EQ(per_lane_count[0][w].degraded, per_lane_count[1][w].degraded)
          << "window " << w;
      EXPECT_EQ(per_lane_count[0][w].degraded, per_lane_count[2][w].degraded)
          << "window " << w;
      degraded += per_lane_count[0][w].degraded ? 1 : 0;
    }
    if (mode == FastPathMode::kMeanFieldOnly) {
      EXPECT_EQ(degraded, per_lane_count[0].size());
    } else {
      EXPECT_GT(degraded, 0u);
      EXPECT_LT(degraded, per_lane_count[0].size());
    }
  }
}

// --- Sampler-free windows fold their records ---------------------------------------------

// The fleet as it would run if every lane window were built into a log and records were
// plain copies: the same span tracker, hash routing, record selection, fit chains,
// degrade rule, StEM configuration and merger as the lanes, but each lane buffers its own
// copy of every routed record (no queues, no swaps, no recycled capacity), every lane
// window goes through WindowLogBuilder, and the mean-field fit reads the built log. The
// fleet must match it bit for bit at any K, queue capacity and router batch size.
// `lane_counts`, when given, receives each lane's per-queue event counts (the counts a
// lane posts to the merger) summed over the windows the pooled sequence keeps.
std::vector<WindowEstimate> BuildEveryWindowReference(
    const std::vector<TaskRecord>& stream, int num_queues,
    const ShardedStreamingOptions& fleet, std::uint64_t seed,
    std::vector<std::vector<std::size_t>>* lane_counts = nullptr) {
  const StreamingEstimatorOptions& options = fleet.stream;
  struct Lane {
    std::vector<TaskRecord> buffer;
    std::vector<TaskRecord> last_window;
    WindowLogBuilder builder;
    WindowFitChain chain;
    std::vector<std::vector<std::size_t>> window_counts;  // one entry per kept window
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  for (std::size_t l = 0; l < fleet.lanes; ++l) {
    lanes.push_back(std::unique_ptr<Lane>(new Lane{
        {}, {}, WindowLogBuilder(num_queues),
        WindowFitChain(std::vector<double>(static_cast<std::size_t>(num_queues), 1.0), seed,
                       options.window_local_arrival_rate, /*salted=*/fleet.lanes > 1, l),
        {}}));
  }
  WindowSpanTracker tracker(options.window);
  LaneMerger merger(fleet.lanes, num_queues, options.window_local_arrival_rate,
                    fleet.cross_lane_bias_correction);
  MeanFieldEstimator mean_field(options.mean_field);
  MeanFieldFit mf_fit;
  const auto fit_lane = [&](Lane& lane, const WindowSpanTracker::SpanDecision& decision) {
    std::vector<TaskRecord> records =
        TakeDecisionRecords(decision, lane.buffer, lane.last_window);
    LaneWindowFit fit;
    fit.tasks = records.size();
    if (!records.empty()) {
      lane.builder.Restart();
      for (const TaskRecord& record : records) {
        lane.builder.Add(record);
      }
      lane.builder.Build();
      fit.queue_counts = lane.builder.Log().PerQueueCount();
      EXPECT_EQ(std::count(fit.queue_counts.begin(), fit.queue_counts.end(), std::size_t{0}),
                0);
      WindowFitChain::Plan plan = lane.chain.PlanFit(
          decision.window_index, decision.merged_tail_tasks > 0, decision.t0);
      mean_field.Fit(lane.builder.Log(), lane.builder.Obs(), plan.arrival_time_origin,
                     mf_fit);
      for (std::size_t q = 0; q < plan.warm_start.size(); ++q) {
        if (mf_fit.fitted[q] != 0) {
          plan.warm_start[q] = mf_fit.rates[q];
        }
      }
      fit.fitted = true;
      fit.degraded = options.fast_path == FastPathMode::kMeanFieldOnly ||
                     (options.fast_path == FastPathMode::kDegrade &&
                      decision.count > options.degrade_task_budget);
      if (fit.degraded) {
        fit.rates = plan.warm_start;
        fit.mean_wait = mf_fit.mean_wait;
      } else {
        StemOptions stem = options.stem;
        stem.arrival_time_origin = plan.arrival_time_origin;
        Rng rng(plan.seed);
        StemResult result = StemEstimator(stem).Run(lane.builder.Log(), lane.builder.Obs(),
                                                    std::move(plan.warm_start), rng);
        fit.rates = std::move(result.rates);
        fit.mean_wait = std::move(result.mean_wait);
        fit.fit_iterations = result.iterations_run;
      }
      lane.chain.Complete(fit.rates);
    }
    if (decision.merged_tail_tasks > 0) {
      lane.window_counts.back() = fit.queue_counts;
    } else {
      lane.window_counts.push_back(fit.queue_counts);
    }
    if (decision.merged_tail_tasks == 0 && options.window.merge_trailing_window) {
      lane.last_window = std::move(records);
    }
    return fit;
  };
  std::vector<WindowEstimate> estimates;
  const auto close_all = [&] {
    while (tracker.HasClosed()) {
      const WindowSpanTracker::SpanDecision decision = tracker.PopClosed();
      merger.ExpectWindow(decision);
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        merger.Post(l, fit_lane(*lanes[l], decision));
      }
      PooledWindow pooled;
      while (merger.Pop(pooled)) {
        if (pooled.replaces_previous) {
          estimates.back() = std::move(pooled.estimate);
        } else {
          estimates.push_back(std::move(pooled.estimate));
        }
      }
    }
  };
  for (const TaskRecord& record : stream) {
    if (tracker.Push(record.entry_time) == WindowSpanTracker::PushVerdict::kLateDropped) {
      continue;
    }
    lanes[TaskLane(TaskHash(record), fleet.lanes)]->buffer.push_back(record);
    close_all();
  }
  tracker.Finish();
  close_all();
  if (lane_counts != nullptr) {
    lane_counts->assign(lanes.size(), std::vector<std::size_t>(num_queues, 0));
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      for (const std::vector<std::size_t>& counts : lanes[l]->window_counts) {
        for (std::size_t q = 0; q < counts.size(); ++q) {
          (*lane_counts)[l][q] += counts[q];
        }
      }
    }
  }
  return estimates;
}

std::vector<TaskRecord> FixtureRecords(const Fixture& f) {
  std::vector<TaskRecord> records;
  for (int k = 0; k < f.truth.NumTasks(); ++k) {
    records.push_back(MakeTaskRecord(f.truth, f.obs, k));
  }
  return records;
}

std::vector<WindowEstimate> RunFleetOn(const std::vector<TaskRecord>& records, int num_queues,
                                       const ShardedStreamingOptions& options,
                                       std::uint64_t seed, FleetStats* stats = nullptr) {
  qnet_testing::VectorStream stream(records, num_queues);
  ShardedStreamingEstimator fleet(std::vector<double>(static_cast<std::size_t>(num_queues), 1.0),
                                  seed, options);
  auto estimates = fleet.Run(stream);
  if (stats != nullptr) {
    *stats = fleet.Stats();
  }
  return estimates;
}

TEST(ShardedStreaming, SingleLaneRecordFoldMatchesBuildEveryWindowReference) {
  const Fixture f;
  const std::vector<TaskRecord> records = FixtureRecords(f);
  for (const FastPathMode mode : {FastPathMode::kMeanFieldOnly, FastPathMode::kDegrade}) {
    for (const bool window_local : {false, true}) {
      SCOPED_TRACE(std::string(mode == FastPathMode::kDegrade ? "degrade" : "only") +
                   (window_local ? ", window-local" : ", absolute"));
      ShardedStreamingOptions options;
      options.lanes = 1;
      options.stream = ShortStemOptions();
      options.stream.fast_path = mode;
      options.stream.degrade_task_budget = 100;
      options.stream.window_local_arrival_rate = window_local;
      const std::vector<WindowEstimate> reference =
          BuildEveryWindowReference(records, f.truth.NumQueues(), options, 61);
      ASSERT_GE(reference.size(), 3u);
      const auto degraded = static_cast<std::size_t>(
          std::count_if(reference.begin(), reference.end(),
                        [](const WindowEstimate& e) { return e.degraded; }));
      if (mode == FastPathMode::kDegrade) {
        EXPECT_GT(degraded, 0u) << "budget chosen so the busiest windows degrade";
        EXPECT_LT(degraded, reference.size()) << "and the quiet ones still sample";
      }
      ExpectEstimatesIdentical(reference, RunFleet(f, options, 61));
    }
  }
}

// Records of a single-queue retry network, picked in entry order so that they alternate
// between one visit and at least five. A lane's recycled record slots therefore bring
// capacity that is sometimes larger and sometimes smaller than the incoming record's.
std::vector<TaskRecord> AlternatingVisitRecords(std::size_t count, int* num_queues) {
  const QueueingNetwork net = MakeFeedbackNetwork(4.0, 24.0, 0.75);
  Rng rng(23);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, count * 8), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  const Observation obs = scheme.Apply(truth, rng);
  *num_queues = truth.NumQueues();
  std::vector<TaskRecord> records;
  for (int k = 0; k < truth.NumTasks() && records.size() < count; ++k) {
    TaskRecord record = MakeTaskRecord(truth, obs, k);
    const bool want_one = records.size() % 2 == 0;
    if (want_one ? record.visits.size() == 1 : record.visits.size() >= 5) {
      records.push_back(std::move(record));
    }
  }
  EXPECT_EQ(records.size(), count);
  return records;
}

// Records of a heavily loaded retry network, nearly all observed, reordered the ways a
// live collector reorders them, over spans of `span` seconds. With about eight tasks in
// the system, a window's per-queue response sum grows past its entry times, so its
// additions round, and in another order they round differently. The records entering
// in [2 span, 3.5 span) are thinned to every eighth, so spans there hold too few records
// and extend. The stream is cut 6 records past a span boundary, leaving a tail too small
// for its own window. Every fifth record then swaps with its successor when both enter
// in the same span, and every 23rd is moved 200 records later, behind the span it
// entered in, which has closed by then.
std::vector<TaskRecord> DisorderedRecords(double span, int* num_queues) {
  const QueueingNetwork net = MakeFeedbackNetwork(4.0, 18.0, 0.75);
  Rng rng(29);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 1000), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.9;
  const Observation obs = scheme.Apply(truth, rng);
  *num_queues = truth.NumQueues();
  std::vector<TaskRecord> records;
  std::size_t sparse = 0;
  for (int k = 0; k < truth.NumTasks(); ++k) {
    const double entry = truth.TaskEntryTime(k);
    if (entry < 2.0 * span || entry >= 3.5 * span || sparse++ % 8 == 0) {
      records.push_back(MakeTaskRecord(truth, obs, k));
    }
  }
  const double cut = span * std::floor(0.8 * records.back().entry_time / span);
  const auto tail = std::find_if(records.begin(), records.end(),
                                 [&](const TaskRecord& r) { return r.entry_time >= cut; });
  records.erase(tail + 6, records.end());
  const auto span_of = [&](const TaskRecord& r) { return std::floor(r.entry_time / span); };
  for (std::size_t i = 0; i + 1 < records.size(); i += 5) {
    if (span_of(records[i]) == span_of(records[i + 1])) {
      std::swap(records[i], records[i + 1]);
    }
  }
  for (std::size_t i = 11; i + 200 < records.size(); i += 23) {
    const auto from = records.begin() + static_cast<std::ptrdiff_t>(i);
    std::rotate(from, from + 1, from + 201);
  }
  return records;
}

TEST(ShardedStreaming, RecordHandoffMatchesBuildEveryWindowReferenceAtEveryLaneCount) {
  // A lane that keeps records copies each one into recycled capacity, so a slot that
  // kept stale visits or lost part of the incoming record would change a lane's counts
  // or fits. Every lane count is pinned bit for bit to the copying reference, which
  // buffers each lane's records in routing order: record order and payload per lane,
  // and each lane's routed count. Cross-lane bias correction makes the pooled estimates
  // read every lane's posted queue counts.
  //
  // Lanes fold each record when they take it, while the reference sorts each window's
  // records at its close. The disordered stream checks that the two agree on everything
  // arrival order can do to a window: swaps inside a span (the fold's response sums must
  // follow entry order), records late behind a closed span (merged into the open window,
  // or dropped), records held past the open span's end under allowed lateness (folded
  // only at the close that takes them), spans extended by min_tasks_per_window, and a
  // trailing window merged into the previous one.
  int num_queues = 0;
  const std::vector<TaskRecord> records = AlternatingVisitRecords(400, &num_queues);
  struct Input {
    std::string name;
    const std::vector<TaskRecord>* records;
    WindowAssemblerOptions window;
  };
  std::vector<Input> inputs;
  inputs.push_back({"ordered", &records, ShortStemOptions(50.0).window});
  int disordered_queues = 0;
  const std::vector<TaskRecord> disordered = DisorderedRecords(25.0, &disordered_queues);
  ASSERT_EQ(disordered_queues, num_queues);
  for (const LateRecordPolicy policy :
       {LateRecordPolicy::kMergeIntoCurrent, LateRecordPolicy::kDrop}) {
    for (const double lateness : {0.0, 2.0}) {
      WindowAssemblerOptions window = ShortStemOptions(25.0).window;
      window.min_tasks_per_window = 20;
      window.allowed_lateness = lateness;
      window.late_policy = policy;
      inputs.push_back({std::string("disordered, ") +
                            (policy == LateRecordPolicy::kDrop ? "drop" : "merge") +
                            ", lateness " + std::to_string(lateness),
                        &disordered, window});
    }
  }
  for (const Input& input : inputs) {
    const bool ordered = input.records == &records;
    for (const FastPathMode mode : {FastPathMode::kMeanFieldOnly, FastPathMode::kWarmStart}) {
      for (const std::size_t lanes : {1u, 2u, 4u}) {
        SCOPED_TRACE(input.name + ", " +
                     (mode == FastPathMode::kWarmStart ? "warm-start" : "only") + ", lanes " +
                     std::to_string(lanes));
        ShardedStreamingOptions options;
        options.lanes = lanes;
        options.cross_lane_bias_correction = true;
        options.stream = ShortStemOptions(50.0);
        options.stream.window = input.window;
        options.stream.fast_path = mode;
        std::vector<std::vector<std::size_t>> lane_counts;
        const std::vector<WindowEstimate> reference = BuildEveryWindowReference(
            *input.records, num_queues, options, 13, &lane_counts);
        ASSERT_GE(reference.size(), 5u);
        if (mode == FastPathMode::kWarmStart) {
          EXPECT_GT(reference.front().fit_iterations, 0u) << "StEM fits these windows";
        }
        if (ordered) {
          // Each lane's posted counts add up to the visits of the records routed to it.
          std::vector<std::vector<std::size_t>> routed(
              lanes, std::vector<std::size_t>(num_queues, 0));
          for (const TaskRecord& record : records) {
            std::vector<std::size_t>& counts = routed[TaskLane(TaskHash(record), lanes)];
            ++counts[0];
            for (const TaskVisit& visit : record.visits) {
              ++counts[static_cast<std::size_t>(visit.queue)];
            }
          }
          EXPECT_EQ(lane_counts, routed);
        } else {
          EXPECT_GT(reference.back().merged_tail_tasks, 0u) << "the cut leaves a merged tail";
          EXPECT_TRUE(std::any_of(reference.begin(), reference.end() - 1,
                                  [&](const WindowEstimate& e) {
                                    return e.t1 - e.t0 > input.window.window_duration;
                                  }))
              << "the sparse stretch extends a span";
        }
        FleetStats stats;
        ExpectEstimatesIdentical(
            reference, RunFleetOn(*input.records, num_queues, options, 13, &stats));
        if (ordered) {
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            EXPECT_EQ(stats.lane[lane].tasks_routed, lane_counts[lane][0]) << "lane " << lane;
          }
        }
        if (!ordered && input.window.late_policy == LateRecordPolicy::kDrop) {
          EXPECT_GT(stats.late_dropped, 0u);
        }
        if (mode == FastPathMode::kMeanFieldOnly) {
          // A sampler-free lane buffers only the records it holds past the open span,
          // which needs allowed lateness.
          std::size_t held = 0;
          for (const LaneStats& lane : stats.lane) {
            held = std::max(held, lane.peak_buffered_tasks);
          }
          EXPECT_EQ(held > 0, input.window.allowed_lateness > 0.0);
        }
      }
    }
  }
}

TEST(ShardedStreaming, SamplerFreeLaneWindowsNeverBuildALog) {
  const Fixture f;
  const Counter& logs_built = *StreamCounters::Get().window_logs_built;
  for (const std::size_t lanes : {1u, 2u}) {
    ShardedStreamingOptions options;
    options.lanes = lanes;
    options.stream = ShortStemOptions();
    options.stream.fast_path = FastPathMode::kMeanFieldOnly;
    const std::uint64_t before = logs_built.Value();
    ASSERT_GE(RunFleet(f, options, 5).size(), 3u);
    EXPECT_EQ(logs_built.Value(), before) << "lanes " << lanes;
  }
  // Under kDegrade exactly the lane windows that StEM fits are built.
  ShardedStreamingOptions options;
  options.lanes = 2;
  options.stream = ShortStemOptions();
  options.stream.fast_path = FastPathMode::kDegrade;
  options.stream.degrade_task_budget = 100;
  const std::uint64_t before = logs_built.Value();
  FleetStats stats;
  ASSERT_GE(RunFleet(f, options, 5, &stats).size(), 3u);
  std::size_t stem_fits = 0;
  for (const LaneStats& lane : stats.lane) {
    stem_fits +=
        lane.windows_closed - lane.empty_windows - lane.degraded_fits - lane.skipped_fits;
  }
  EXPECT_GT(stem_fits, 0u);
  EXPECT_EQ(logs_built.Value() - before, stem_fits);
}

TEST(ShardedStreaming, UnobservedWindowKeepsTheChainRatesUnderMeanFieldOnly) {
  // Window [50, 75) has no observed time at all. Its mean-field fit pins nothing, so the
  // lane emits its chain's rates — the previous window's — rather than the fallback
  // lambda and a service rate of n / min_span.
  const Fixture f;
  std::vector<TaskRecord> records;
  for (int k = 0; k < f.truth.NumTasks(); ++k) {
    TaskRecord record = MakeTaskRecord(f.truth, f.obs, k);
    if (record.entry_time >= 50.0 && record.entry_time < 75.0) {
      for (TaskVisit& visit : record.visits) {
        visit.arrival_observed = false;
        visit.departure_observed = false;
      }
    }
    records.push_back(std::move(record));
  }
  ShardedStreamingOptions options;
  options.lanes = 1;
  options.stream = ShortStemOptions();
  options.stream.fast_path = FastPathMode::kMeanFieldOnly;
  qnet_testing::VectorStream stream(std::move(records), f.truth.NumQueues());
  const std::vector<WindowEstimate> estimates =
      ShardedStreamingEstimator({1.0, 1.0, 1.0}, 7, options).Run(stream);
  ASSERT_GE(estimates.size(), 4u);
  ASSERT_EQ(estimates[2].t0, 50.0);
  ASSERT_EQ(estimates[2].t1, 75.0);
  EXPECT_GT(estimates[2].tasks, 0u);
  EXPECT_TRUE(estimates[2].degraded);
  EXPECT_EQ(estimates[2].rates, estimates[1].rates);
  for (const double rate : estimates[2].rates) {
    EXPECT_TRUE(std::isfinite(rate));
  }
  EXPECT_EQ(estimates[2].mean_wait, std::vector<double>(3, 0.0));
  // The next observed window is fitted again.
  EXPECT_NE(estimates[3].rates, estimates[2].rates);
}

// --- Cross-lane bias correction ----------------------------------------------------------

TEST(ShardedStreaming, BiasCorrectionIsANoOpAtSingleLane) {
  // K = 1 pools verbatim (one contributing lane per window), so flipping the correction
  // on must not move a bit — the plain-estimator anchor survives the new option.
  const Fixture f;
  ShardedStreamingOptions options;
  options.lanes = 1;
  options.stream = ShortStemOptions();
  options.stream.window_local_arrival_rate = true;
  const auto plain = RunFleet(f, options, 43);
  options.cross_lane_bias_correction = true;
  const auto corrected = RunFleet(f, options, 43);
  ASSERT_GE(plain.size(), 3u);
  ExpectEstimatesIdentical(plain, corrected);
}

TEST(ShardedStreaming, BiasCorrectionRecoversSingleLaneServiceAtHighUtilization) {
  // The accuracy claim behind the correction. At rho = 0.7 a lane's hash-thinned
  // sub-stream hides most queueing: waits caused by OTHER lanes' tasks are attributed to
  // service, so the uncorrected K = 4 pooled service time lands at a multiple of the
  // true one. The response invariant S_b + W_b = R survives the thinning, and the
  // corrected pool re-inverts it to match the single-lane fleet closely.
  const double lambda = 2.0;
  const double rho = 0.7;
  const QueueingNetwork net = MakeSingleQueueNetwork(lambda, lambda / rho);
  Rng rng(71);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(lambda, 1200), rng);
  const Observation obs = Observation::FullyObserved(truth);

  const auto run = [&](std::size_t lanes, bool correct) {
    ShardedStreamingOptions options;
    options.lanes = lanes;
    options.stream = ShortStemOptions(60.0);
    options.stream.window_local_arrival_rate = true;
    options.cross_lane_bias_correction = correct;
    LogReplayStream stream(truth, obs);
    ShardedStreamingEstimator fleet({1.0, 1.0}, 53, options);
    return fleet.Run(stream);
  };
  const auto mean_service = [](const std::vector<WindowEstimate>& estimates) {
    double sum = 0.0;
    for (const WindowEstimate& estimate : estimates) {
      sum += 1.0 / estimate.rates[1];
    }
    return sum / static_cast<double>(estimates.size());
  };

  const auto reference = run(1, false);
  ASSERT_GE(reference.size(), 5u);
  const double ref_service = mean_service(reference);
  EXPECT_NEAR(ref_service, rho / lambda, 0.15 * rho / lambda);  // sanity: near 1/mu

  const double corrected = mean_service(run(4, true));
  const double uncorrected = mean_service(run(4, false));

  EXPECT_NEAR(corrected, ref_service, 0.10 * ref_service);
  // The uncorrected pool is not just slightly worse — it misses by a multiple.
  EXPECT_GT(uncorrected, 1.5 * ref_service);
  EXPECT_GT(std::abs(uncorrected - ref_service), 3.0 * std::abs(corrected - ref_service));
}

// --- Window-estimate CSV -----------------------------------------------------------------

TEST(WindowCsv, RoundTripsBitExactly) {
  const Fixture f;
  ShardedStreamingOptions options;
  options.lanes = 2;
  options.stream = ShortStemOptions();
  options.stream.window_local_arrival_rate = true;
  const auto pooled = RunFleet(f, options, 3);
  ASSERT_GE(pooled.size(), 2u);

  std::stringstream ss;
  WriteWindowEstimates(ss, pooled, 3);
  const auto parsed = ReadWindowEstimates(ss);
  ExpectEstimatesIdentical(pooled, parsed);
}

TEST(WindowCsv, RoundTripsDegradedFlagsAndFitIterations) {
  // Degraded-mode output survives persistence: the flag and the iteration count are
  // first-class columns, not derived.
  const Fixture f;
  ShardedStreamingOptions options;
  options.lanes = 2;
  options.stream = ShortStemOptions();
  options.stream.fast_path = FastPathMode::kDegrade;
  options.stream.degrade_task_budget = 100;
  const auto pooled = RunFleet(f, options, 9);
  ASSERT_GE(pooled.size(), 2u);
  bool any_degraded = false;
  bool any_sampled = false;
  for (const WindowEstimate& estimate : pooled) {
    any_degraded = any_degraded || estimate.degraded;
    any_sampled = any_sampled || !estimate.degraded;
  }
  EXPECT_TRUE(any_degraded);
  EXPECT_TRUE(any_sampled);

  std::stringstream ss;
  WriteWindowEstimates(ss, pooled, 3);
  ExpectEstimatesIdentical(pooled, ReadWindowEstimates(ss));
}

TEST(WindowCsv, RejectsCorruptInput) {
  std::stringstream missing_header("1,2,3\n");
  EXPECT_THROW(ReadWindowEstimates(missing_header), Error);

  // A pre-fast-path row (no degraded/fit_iterations columns) no longer field-counts.
  std::stringstream truncated("# queues=2\n# windows=2\n0,10,5,0,0,1.5,2.5\n");
  EXPECT_THROW(ReadWindowEstimates(truncated), Error);

  std::stringstream bad_row("# queues=2\n# windows=1\n0,10,5\n");
  EXPECT_THROW(ReadWindowEstimates(bad_row), Error);

  std::stringstream negative_iters(
      "# queues=2\n# windows=1\n0,10,5,0,0,0,-3,1.5,2.5\n");
  EXPECT_THROW(ReadWindowEstimates(negative_iters), Error);

  std::stringstream bad_degraded(
      "# queues=2\n# windows=1\n0,10,5,0,0,x,0,1.5,2.5\n");
  EXPECT_THROW(ReadWindowEstimates(bad_degraded), Error);
}

TEST(WindowCsv, AlertMasksRoundTripAndLegacyRowsReadAsZero) {
  // Current rows carry the alerts bitmask as an eighth metadata column; pre-alerts
  // rows (7 metadata fields) still parse, reading alerts = 0. The column count alone
  // identifies the format generation (counts are pairwise distinct for Q >= 2).
  const Fixture f;
  ShardedStreamingOptions options;
  options.lanes = 2;
  options.stream = ShortStemOptions();
  auto pooled = RunFleet(f, options, 3);
  ASSERT_GE(pooled.size(), 2u);
  pooled[0].alerts = 0x5;  // rate shift + bottleneck migration
  pooled[1].alerts = 0x2;  // service drift

  std::stringstream ss;
  WriteWindowEstimates(ss, pooled, 3);
  const auto parsed = ReadWindowEstimates(ss);
  ExpectEstimatesIdentical(pooled, parsed);
  EXPECT_EQ(parsed[0].alerts, 0x5u);
  EXPECT_EQ(parsed[1].alerts, 0x2u);

  std::stringstream legacy(
      "# queues=2\n# windows=2\n"
      "0,10,5,0,1,0,4,1.5,2.5\n"             // 7 meta + Q rates
      "10,20,6,0,1,0,4,1.5,2.5,0.1,0.2\n");  // 7 meta + Q rates + Q waits
  const auto legacy_parsed = ReadWindowEstimates(legacy);
  ASSERT_EQ(legacy_parsed.size(), 2u);
  EXPECT_EQ(legacy_parsed[0].alerts, 0u);
  EXPECT_EQ(legacy_parsed[1].alerts, 0u);
  EXPECT_EQ(legacy_parsed[0].rates[1], 2.5);
  ASSERT_EQ(legacy_parsed[1].mean_wait.size(), 2u);
  EXPECT_EQ(legacy_parsed[1].mean_wait[1], 0.2);
}

TEST(WindowCsv, RejectsCorruptAlertsMask) {
  std::stringstream negative(
      "# queues=2\n# windows=1\n0,10,5,0,1,0,4,-1,1.5,2.5\n");
  EXPECT_THROW(ReadWindowEstimates(negative), Error);

  std::stringstream overflow(
      "# queues=2\n# windows=1\n0,10,5,0,1,0,4,4294967296,1.5,2.5\n");
  EXPECT_THROW(ReadWindowEstimates(overflow), Error);

  std::stringstream garbage(
      "# queues=2\n# windows=1\n0,10,5,0,1,0,4,x,1.5,2.5\n");
  EXPECT_THROW(ReadWindowEstimates(garbage), Error);
}

}  // namespace
}  // namespace qnet
