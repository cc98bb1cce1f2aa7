// Counting-allocator proof that the Gibbs hot path is allocation-free: every global
// operator new in this binary bumps a counter, and the tests assert the counter does not
// move across gather->build->sample cycles and across whole sweeps. This pins the
// perf-critical property (PiecewiseExpDensity inline storage, stack cut arrays) so a
// regression that reintroduces a heap allocation per move fails CI instead of just
// slowing the benchmarks.

#include <gtest/gtest.h>

#include "support/counting_allocator.h"
#include "support/reference_sweep.h"
#include "support/vector_stream.h"

#include "qnet/detect/change_monitor.h"
#include "qnet/infer/conditional.h"
#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/infer/meanfield.h"
#include "qnet/infer/stem.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/sim/sim_scratch.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/live_stream.h"
#include "qnet/stream/task_record.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/rng.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {
namespace {

using qnet_testing::AllocationCount;

struct Fixture {
  EventLog truth;
  Observation obs;
  std::vector<double> rates;
  EventLog init;
};

Fixture MakeFixture() {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(21);
  EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 120), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.2;
  Observation obs = scheme.Apply(truth, rng);
  std::vector<double> rates = net.ExponentialRates();
  EventLog init = InitializeFeasible(truth, obs, rates, rng);
  return Fixture{std::move(truth), std::move(obs), std::move(rates), std::move(init)};
}

EventId FirstLatentArrival(const Fixture& fixture) {
  for (EventId e = 0; static_cast<std::size_t>(e) < fixture.init.NumEvents(); ++e) {
    if (!fixture.init.At(e).initial && !fixture.obs.ArrivalObserved(e)) {
      return e;
    }
  }
  return kNoEvent;
}

TEST(AllocFree, ArrivalGatherBuildSampleDoesNotAllocate) {
  const Fixture fixture = MakeFixture();
  const EventId target = FirstLatentArrival(fixture);
  ASSERT_NE(target, kNoEvent);
  Rng rng(7);
  // Warm-up exercises every branch object once before counting.
  {
    const ArrivalMove move = GatherArrivalMove(fixture.init, target, fixture.rates);
    ASSERT_LT(move.lower, move.upper);
    (void)BuildArrivalDensity(move).Sample(rng);
  }
  const std::size_t before = AllocationCount();
  double sink = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const ArrivalMove move = GatherArrivalMove(fixture.init, target, fixture.rates);
    sink += BuildArrivalDensity(move).Sample(rng);
  }
  EXPECT_EQ(AllocationCount(), before) << "sink=" << sink;
}

TEST(AllocFree, BuildArrivalDensityDoesNotAllocate) {
  const Fixture fixture = MakeFixture();
  const EventId target = FirstLatentArrival(fixture);
  ASSERT_NE(target, kNoEvent);
  const ArrivalMove move = GatherArrivalMove(fixture.init, target, fixture.rates);
  ASSERT_LT(move.lower, move.upper);
  const std::size_t before = AllocationCount();
  double sink = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const PiecewiseExpDensity density = BuildArrivalDensity(move);
    sink += density.NumSegments() > 0 ? density.SupportLo() : 0.0;
  }
  EXPECT_EQ(AllocationCount(), before) << "sink=" << sink;
}

TEST(AllocFree, WholeGibbsSweepDoesNotAllocate) {
  const Fixture fixture = MakeFixture();
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  ASSERT_GT(sampler.NumLatentArrivals(), 0u);
  Rng rng(9);
  sampler.Sweep(rng);  // warm-up
  const std::size_t before = AllocationCount();
  for (int sweep = 0; sweep < 20; ++sweep) {
    sampler.Sweep(rng);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(AllocFree, BatchedSweepAtFullWidthDoesNotAllocate) {
  // The batched SoA kernel's whole per-tile machinery — BatchRng lane states, the
  // PiecewiseExpBatch arrays, the pick/inv/sampled rows — lives on the stack, and the
  // owned single-shard schedule is built on the first sweep; warmed up, a sweep at the
  // widest tile performs zero allocations.
  const Fixture fixture = MakeFixture();
  GibbsOptions options;
  options.batch_width = kMaxBatchWidth;
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates, options);
  ASSERT_GT(sampler.NumLatentArrivals(), 0u);
  Rng rng(9);
  sampler.Sweep(rng);  // warm-up (builds the single-shard schedule)
  const std::size_t before = AllocationCount();
  for (int sweep = 0; sweep < 20; ++sweep) {
    sampler.Sweep(rng);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(AllocFree, ReferenceKernelSweepDoesNotAllocate) {
  // The A/B partner must obey the same contract, or bit-equality tests and benchmark
  // gates would compare against a path with different allocation behavior.
  const Fixture fixture = MakeFixture();
  qnet_testing::ReferenceSweeper reference(fixture.init, fixture.obs, fixture.rates);
  Rng rng(9);
  reference.Sweep(rng);  // warm-up
  const std::size_t before = AllocationCount();
  for (int sweep = 0; sweep < 20; ++sweep) {
    reference.Sweep(rng);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(AllocFree, WarmSimulationScratchDoesNotAllocate) {
  // The DES arena contract: once a SimScratch has seen one run of a given shape, further
  // runs (workload generation, route sampling, the staged event loop) touch the heap
  // zero times. Tandem routes have a fixed length, so capacity never needs to grow.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  const PoissonArrivals workload(2.0, 256);
  SimScratch scratch;
  Rng rng(5);
  SimulateWorkloadIntoScratch(net, workload, scratch, rng);  // warm-up
  const std::size_t before = AllocationCount();
  for (int i = 0; i < 10; ++i) {
    SimulateWorkloadIntoScratch(net, workload, scratch, rng);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(AllocFree, WarmLiveSimStreamDoesNotAllocate) {
  // The live stream runs on a compacted DES arena and fills the caller's record in
  // place, so once the arena has reached its working size, pulling a task into one
  // reused TaskRecord touches the heap zero times.
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 3.0;
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  LiveSimOptions options;
  options.max_tasks = 6000;
  options.arrival_rate = 3.0;
  options.observed_fraction = 0.2;
  LiveSimStream stream(net, options, 7);
  TaskRecord record;
  for (int i = 0; i < 2000; ++i) {  // warm-up
    ASSERT_TRUE(stream.Next(record));
  }
  const std::size_t before = AllocationCount();
  std::size_t pulled = 0;
  while (stream.Next(record)) {
    ++pulled;
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(pulled, 4000u);
}

TEST(AllocFree, WarmScratchToEventLogDoesNotAllocate) {
  // EventLog::Reset keeps every buffer's capacity (events, per-task chains, per-queue
  // orders), so exporting a warm arena into a reused log is also allocation-free.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  const PoissonArrivals workload(2.0, 256);
  SimScratch scratch;
  EventLog log(net.NumQueues());
  Rng rng(5);
  SimulateWorkloadIntoScratch(net, workload, scratch, rng);
  ScratchToEventLog(scratch, net.NumQueues(), log);  // warm-up
  const std::size_t before = AllocationCount();
  for (int i = 0; i < 10; ++i) {
    SimulateWorkloadIntoScratch(net, workload, scratch, rng);
    ScratchToEventLog(scratch, net.NumQueues(), log);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(AllocFree, WarmWindowBuildDoesNotAllocate) {
  // The in-place window build reuses the builder's log and observation buffers
  // (EventLog::Reset recycles per-task chains), so once one window has warmed them a
  // same-size or smaller window is built without a single heap allocation.
  const Fixture fixture = MakeFixture();
  std::vector<TaskRecord> records;
  for (int k = 0; k < fixture.truth.NumTasks(); ++k) {
    records.push_back(MakeTaskRecord(fixture.truth, fixture.obs, k));
  }
  WindowLogBuilder builder(fixture.truth.NumQueues());
  for (const TaskRecord& record : records) {  // warm-up window
    builder.Add(record);
  }
  builder.Build();
  const std::size_t before = AllocationCount();
  for (const std::size_t size : {records.size(), records.size() / 2, records.size()}) {
    builder.Restart();
    for (std::size_t k = 0; k < size; ++k) {
      builder.Add(records[k]);
    }
    builder.Build();
  }
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_EQ(builder.Log().NumTasks(), fixture.truth.NumTasks());
}

TEST(AllocFree, WarmStemWindowAllocationsDoNotGrowWithTheWindow) {
  // A lane's StEM windows run through one StemWorkspace. Once a window has sized it, a
  // later window rebuilds the initializer graph, the sampler's state, move lists and
  // schedule in place, so what it allocates is its StemResult
  // alone — the same count for a ~300-task and a ~3000-task window (fixed iterations, so
  // both results have the same shape).
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 10.0;
  config.service_rate = 16.0;
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  struct Window {
    EventLog truth;
    Observation obs;
  };
  const auto make_window = [&](std::size_t tasks, std::uint64_t seed) {
    Rng rng(seed);
    EventLog truth = SimulateWorkload(net, PoissonArrivals(10.0, tasks), rng);
    TaskSamplingScheme scheme;
    scheme.fraction = 0.2;
    Observation obs = scheme.Apply(truth, rng);
    return Window{std::move(truth), std::move(obs)};
  };
  const Window small = make_window(300, 41);
  const Window large = make_window(3000, 43);
  StemOptions options;
  options.iterations = 12;
  options.burn_in = 4;
  options.wait_sweeps = 4;
  options.convergence_tol = 0.0;
  const StemEstimator estimator(options);
  const std::vector<double> rates = net.ExponentialRates();
  StemWorkspace workspace;
  const auto window_allocations = [&](const Window& window) {
    Rng rng(5);
    const std::size_t before = AllocationCount();
    const StemResult result = estimator.Run(window.truth, window.obs, rates, rng, workspace);
    const std::size_t allocations = AllocationCount() - before;
    EXPECT_EQ(result.iterations_run, options.iterations);
    return allocations;
  };
  window_allocations(large);  // first window: sizes the workspace
  window_allocations(small);
  const std::size_t small_count = window_allocations(small);
  const std::size_t large_count = window_allocations(large);
  EXPECT_EQ(small_count, large_count);
  // The StemResult: three per-queue vectors, the rate trace and its rows, and the
  // init-rate copy the call takes by value.
  EXPECT_LE(large_count, options.iterations + 8);
}

TEST(AllocFree, WarmMeanFieldFoldDoesNotAllocate) {
  // A sampler-free lane window: fold the records into the mean-field statistics and run
  // the closure. Restart keeps the statistics' capacity and the fit assign()s its
  // outputs in place, so once warm no window allocates.
  const Fixture fixture = MakeFixture();
  std::vector<TaskRecord> records;
  for (int k = 0; k < fixture.truth.NumTasks(); ++k) {
    records.push_back(MakeTaskRecord(fixture.truth, fixture.obs, k));
  }
  MeanFieldRecordFold fold(fixture.truth.NumQueues());
  MeanFieldEstimator estimator;
  MeanFieldFit fit;
  for (const TaskRecord& record : records) {  // warm-up window
    fold.Add(record);
  }
  estimator.Fit(fold.Stats(), 0.0, fit);
  const std::size_t before = AllocationCount();
  for (const std::size_t size : {records.size(), records.size() / 2, records.size()}) {
    fold.Restart();
    for (std::size_t k = 0; k < size; ++k) {
      fold.Add(records[k]);
    }
    estimator.Fit(fold.Stats(), records.front().entry_time, fit);
  }
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_EQ(fold.Stats().NumTasks(), records.size());
  EXPECT_TRUE(fit.AllQueuesFitted());
}

TEST(AllocFree, SamplerFreeFleetAllocatesPerWindowNotPerTask) {
  // A kMeanFieldOnly fleet keeps no records: each lane folds the stream's record, by
  // reference, into its window's statistics and response terms, whose capacity it keeps
  // across windows. Once those buffers have grown to the widest window, more tasks add
  // allocations only per window (the lane fits, the pooled estimate). Runs over N and 2N
  // tasks at the same window size must therefore differ by far less than one allocation
  // per extra task. Sampler-free lanes run on the caller's thread at every K, so no
  // lane queue is involved.
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 100.0;
  config.service_rate = 160.0;
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  constexpr std::size_t kTasks = 8000;
  Rng rng(31);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(100.0, 2 * kTasks), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.2;
  const Observation obs = scheme.Apply(truth, rng);
  std::vector<TaskRecord> records;
  for (int k = 0; k < truth.NumTasks(); ++k) {
    records.push_back(MakeTaskRecord(truth, obs, k));
  }
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    ShardedStreamingOptions options;
    options.lanes = lanes;
    options.stream.window.window_duration = 10.0;  // ~1000 tasks per window
    options.stream.fast_path = FastPathMode::kMeanFieldOnly;
    const auto run_allocations = [&](std::size_t tasks) {
      qnet_testing::VectorStream stream(
          std::vector<TaskRecord>(records.begin(),
                                  records.begin() + static_cast<std::ptrdiff_t>(tasks)),
          truth.NumQueues());
      ShardedStreamingEstimator fleet(
          std::vector<double>(static_cast<std::size_t>(truth.NumQueues()), 1.0), 3, options);
      const std::size_t before = AllocationCount();
      const std::size_t windows = fleet.Run(stream).size();
      const std::size_t allocations = AllocationCount() - before;
      EXPECT_GE(windows, tasks / 1000 - 1);
      return allocations;
    };
    const std::size_t once = run_allocations(kTasks);
    const std::size_t twice = run_allocations(2 * kTasks);
    const double per_extra_task =
        (static_cast<double>(twice) - static_cast<double>(once)) / static_cast<double>(kTasks);
    EXPECT_LT(per_extra_task, 0.1) << "lanes " << lanes << ": " << once << " allocations over "
                                   << kTasks << " tasks, " << twice << " over " << 2 * kTasks;
  }
}

TEST(AllocFree, TelemetryUpdatesDoNotAllocate) {
  // The metric hot paths are relaxed atomics into pre-registered storage; the span ring
  // is a fixed per-thread array. The one-time setup cost (bundle registration, the
  // stage-histogram table, this thread's ring) is paid in the warm-up — after that,
  // counter adds, gauge high-water marks, histogram records, and span captures must
  // never touch the heap.
  Timeline::SetLevel(3);
  const StreamCounters& counters = StreamCounters::Get();  // warm-up: registration
  Histogram* h = MetricRegistry::Global().AddHistogram("qnet_test_allocfree_ns");
  h->Record(1);
  { ScopedSpan span(SpanStage::kSweepTile); }  // warm-up: ring + stage table
  const std::size_t before = AllocationCount();
  for (int i = 0; i < 1000; ++i) {
    counters.tasks_ingested->Increment();
    counters.fit_iterations->Add(3);
    counters.peak_buffered_tasks->SetMax(static_cast<double>(i));
    h->Record(static_cast<std::uint64_t>(i));
    ScopedSpan span(SpanStage::kSweepTile);
  }
  EXPECT_EQ(AllocationCount(), before);
  Timeline::SetLevel(1);
}

TEST(AllocFree, InstrumentedSweepDoesNotAllocate) {
  // The observability acceptance gate: a warmed-up colored sweep stays allocation-free
  // with EVERY span level armed (color and tile spans recording into the thread ring
  // plus their stage histograms). Telemetry that allocated per sweep would fail here
  // before it ever showed up as benchmark noise.
  const Fixture fixture = MakeFixture();
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  Timeline::SetLevel(3);
  Rng rng(9);
  sampler.Sweep(rng);  // warm-up (ring registration, stage-histogram table)
  const std::size_t before = AllocationCount();
  for (int sweep = 0; sweep < 20; ++sweep) {
    sampler.Sweep(rng);
  }
  EXPECT_EQ(AllocationCount(), before);
  Timeline::SetLevel(1);
}

TEST(AllocFree, ChangeMonitorObserveDoesNotAllocate) {
  // The detection tap must never add per-window heap traffic to the streaming loop:
  // CUSUM state is scalar, the BOCPD run-length posterior lives in fixed vectors, and
  // the merged-tail snapshot/rewind copies same-shape vectors (no reallocation). The
  // warm-up covers arming every detector plus the monitor's log reservations.
  ChangeMonitor monitor(3);
  WindowEstimate e;
  e.tasks = 120;
  e.window_local_arrival_rate = true;
  e.rates = {4.0, 10.0, 8.0};
  e.mean_wait = {0.0, 0.1, 0.25};
  std::size_t w = 0;
  for (; w < 16; ++w) {  // warm-up: past every detector's 8-window arming point
    e.t0 = 30.0 * static_cast<double>(w);
    e.t1 = e.t0 + 30.0;
    monitor.Observe(e);
  }
  const std::size_t before = AllocationCount();
  for (int i = 0; i < 1000; ++i, ++w) {
    e.t0 = 30.0 * static_cast<double>(w);
    e.t1 = e.t0 + 30.0;
    // Deterministic wobble inside the detectors' sigma floors (no Rng: keep the loop
    // body pure mutation of the reused estimate).
    const double tick = (i % 2 == 0) ? 1.01 : 0.99;
    e.rates[0] = 4.0 * tick;
    e.rates[1] = 10.0 / tick;
    e.mean_wait[2] = 0.25 * tick;
    monitor.Observe(e);
  }
  // The merged-tail rewind path (snapshot restore + alert-log truncation) must be
  // clean too: replace the last window in place.
  e.merged_tail_tasks = 40;
  monitor.Observe(e);
  EXPECT_EQ(AllocationCount(), before);
}

TEST(AllocFree, WarmOrderedPoolAllocatesNothingPerJob) {
  // The fit pool's job ring reuses its slots: once warm at the callers' bounded depth
  // (at most 2W jobs in flight), submitting and collecting jobs allocates nothing. Each
  // job captures one pointer, as the fleet's and the scenario engine's jobs do, which
  // std::function stores inline.
  for (const std::size_t width : {std::size_t{1}, std::size_t{2}}) {
    OrderedPool<std::size_t> pool(width);
    std::vector<std::size_t> results(64, 0);
    const auto run = [&](std::size_t jobs) {
      for (std::size_t i = 0; i < jobs; ++i) {
        if (pool.InFlight() >= 2 * pool.Workers()) {
          pool.WaitOldest();
        }
        std::size_t* slot = &results[i % results.size()];
        pool.Submit([slot](std::size_t& ran) {
          ++ran;
          ++*slot;
        });
      }
      while (pool.InFlight() > 0) {
        pool.WaitOldest();
      }
    };
    run(16);  // warm: threads started, ring at its working size
    const std::size_t before = AllocationCount();
    run(1000);
    EXPECT_EQ(AllocationCount() - before, 0u) << "width " << width;
    std::size_t total = 0;
    for (std::size_t r : results) {
      total += r;
    }
    EXPECT_EQ(total, 1016u) << "width " << width;
  }
}

}  // namespace
}  // namespace qnet
