// Sharded streaming front-end benchmarks: lane-ingest throughput, fleet end-to-end
// estimation throughput vs the plain StreamingEstimator, the sampler-free (mean-field)
// fleet's ingest rate, and the per-task allocation footprint across lane counts
// (google-benchmark).
//
// Workflow (tracked in CI as BENCH_shard.json):
//   ./build/perf_shard --benchmark_format=json > BENCH_shard.json
// Headline metrics:
//   BM_LaneIngest/K items_per_second      — tasks/s through router -> K lanes (direct
//                                           calls on the caller's thread) -> per-lane
//                                           window assembly with a minimal StEM
//                                           (2 iterations), isolating the partition/
//                                           assembly cost;
//   BM_FleetEstimate/K items_per_second    — end-to-end tasks/s including realistic
//                                           per-window warm-started StEM fits per lane,
//                                           under the thread's full CPU mask (fits on a
//                                           pool as wide as the mask);
//                                           pool_over_inline is the median over
//                                           interleaved iterations of the one-CPU pass
//                                           time over the full-mask pass time (shows
//                                           the pool's parallelism on multi-core
//                                           hardware; 1.0 on the 1-core CI box, which
//                                           does not gate it; the one-CPU pass rotates
//                                           through the mask's CPUs); both arms'
//                                           window latency p50/p90 (close to emission);
//   BM_WarmStartPool pool_over_inline      — the same pair for a K = 1 kWarmStart
//                                           monitor, whose window fits read no chain
//                                           rate and so run alongside each other;
//   BM_FleetVsPlainK1 fleet_over_plain    — the K=1 overhead pin: plain StreamingEstimator
//                                           and K=1 fleet passes with the SAME options,
//                                           interleaved in one benchmark so host drift
//                                           hits both; CI gates the in-run rate ratio
//                                           >= 0.9 (the plain estimator runs as the
//                                           single-lane fleet, so both take the same
//                                           in-thread path: router, one lane and merger
//                                           on the caller's thread);
//   BM_FleetAllocations/K allocs_per_task — global operator-new calls per ingested task
//                                           (StEM windows); CI gates a bound AND
//                                           flatness across K (lane count must not buy
//                                           per-task allocations);
//   BM_FleetMeanFieldIngest/K items_per_second — tasks/s of a kMeanFieldOnly fleet at
//                                           ~1k tasks per window, whose lanes run on the
//                                           caller's thread at every K: routing, span
//                                           tracking and the record fold do the work;
//   BM_FleetMeanFieldAllocations/K allocs_per_task — operator-new calls per extra task
//                                           of that fleet (in-thread): lanes fold each
//                                           record and keep none, reusing their
//                                           buffers' capacity, so only windows
//                                           allocate. CI gates a bound;
//   BM_TaskHash/V v2_over_v1              — TaskHash (contract version 2, four
//                                           accumulators) against the version-1 serial
//                                           chain on the same records of V visits, timed
//                                           in the same run; CI gates the ratio < 0.8.

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>

// Counting allocator (defines global operator new/delete; one TU per binary).
#include "../tests/support/counting_allocator.h"
#include "../tests/support/one_cpu.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <type_traits>
#include <vector>

#include "qnet/infer/thread_pool.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/support/rng.h"
#include "qnet/support/stopwatch.h"
#include "qnet/support/task_hash.h"

namespace {

using qnet_testing::AllocationCount;

struct Fixture {
  qnet::EventLog truth;
  qnet::Observation obs;
};

Fixture MakeFixture(std::size_t tasks) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::Rng rng(12345);
  qnet::EventLog truth = qnet::SimulateWorkload(net, qnet::PoissonArrivals(10.0, tasks), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = 0.25;
  qnet::Observation obs = scheme.Apply(truth, rng);
  return Fixture{std::move(truth), std::move(obs)};
}

qnet::ShardedStreamingOptions FleetOptions(std::size_t lanes, std::size_t stem_iterations,
                                           std::size_t stem_burn_in) {
  qnet::ShardedStreamingOptions options;
  options.lanes = lanes;
  options.stream.window.window_duration = 5.0;  // ~50 tasks per window at rate 10
  options.stream.window.min_tasks_per_window = 8;
  options.stream.stem.iterations = stem_iterations;
  options.stream.stem.burn_in = stem_burn_in;
  options.stream.stem.wait_sweeps = 0;
  return options;
}

std::vector<double> InitRates(const Fixture& fixture) {
  return std::vector<double>(static_cast<std::size_t>(fixture.truth.NumQueues()), 1.0);
}

// Router -> lanes -> per-lane assembly with a minimal fit: the ingest path cost.
void BM_LaneIngest(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(2000);
  const qnet::ShardedStreamingOptions options = FleetOptions(lanes, 2, 1);
  const std::vector<double> init = InitRates(fixture);
  double blocked = 0.0;
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::ShardedStreamingEstimator fleet(init, 17, options);
    const auto estimates = fleet.Run(stream);
    benchmark::DoNotOptimize(estimates.size());
    blocked = fleet.Stats().router_blocked_seconds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
  state.counters["lanes"] = static_cast<double>(lanes);
  state.counters["router_blocked_ms_last_pass"] = blocked * 1e3;
}
BENCHMARK(BM_LaneIngest)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Replays the fixture and stamps each pull, so that on_window can read a window's
// latency the way perfbench does: from the pull of the record that closed the window to
// the window's emission.
class StampedReplay final : public qnet::TraceStream {
 public:
  using Clock = std::chrono::steady_clock;

  StampedReplay(const Fixture& fixture, std::vector<Clock::time_point>* pulled_at)
      : replay_(fixture.truth, fixture.obs), pulled_at_(pulled_at) {
    pulled_at_->clear();
  }
  bool Next(qnet::TaskRecord& out) override {
    if (!replay_.Next(out)) {
      return false;
    }
    pulled_at_->push_back(Clock::now());
    return true;
  }
  int NumQueues() const override { return replay_.NumQueues(); }

 private:
  qnet::LogReplayStream replay_;
  std::vector<Clock::time_point>* pulled_at_;
};

// An on_window hook that appends each window's latency (ms) to `latencies_ms`: the replay
// yields tasks in entry order, so the closing record is the first whose entry reaches the
// window's end. Windows closed by the end of the stream, and merged-tail re-fits, have
// no closing record and are skipped.
std::function<void(const qnet::WindowEstimate&)> LatencyHook(
    const Fixture& fixture, const std::vector<StampedReplay::Clock::time_point>& pulled_at,
    std::vector<double>* latencies_ms) {
  return [&fixture, &pulled_at, latencies_ms](const qnet::WindowEstimate& estimate) {
    const auto now = StampedReplay::Clock::now();
    if (estimate.merged_tail_tasks > 0) {
      return;
    }
    int closing = 0;
    while (closing < fixture.truth.NumTasks() &&
           fixture.truth.TaskEntryTime(closing) < estimate.t1) {
      ++closing;
    }
    if (static_cast<std::size_t>(closing) < pulled_at.size()) {
      latencies_ms->push_back(
          std::chrono::duration<double, std::milli>(now - pulled_at[closing]).count());
    }
  };
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1))];
}

// Times `pass` (one run; returns its seconds and appends its window latencies) under the
// thread's full CPU mask and under a one-CPU mask, in alternating order, once per
// iteration. The one-CPU pass rotates through the mask's CPUs, so no one CPU's load
// decides the inline arm. The iteration's time is the full-mask pass, so
// items_per_second is the pooled rate. Reports the one-CPU (inline) rate,
// pool_over_inline — the median over iterations of inline / full-mask seconds, the
// per-repetition ratio form of CI's MEDIAN_RATIO — and both arms' window latency p50/p90.
template <typename Pass>
void TimePoolAgainstInline(benchmark::State& state, const Pass& pass, std::int64_t tasks) {
  std::vector<double> ratios;
  std::vector<double> pool_latency;
  std::vector<double> inline_latency;
  double inline_seconds = 0.0;
  std::size_t iteration = 0;
  const auto inline_pass = [&] {
    const qnet_testing::ScopedOneCpu one_cpu(iteration);
    return pass(&inline_latency);
  };
  for (auto _ : state) {
    double pooled = 0.0;
    double inlined = 0.0;
    if (iteration % 2 == 0) {
      pooled = pass(&pool_latency);
      inlined = inline_pass();
    } else {
      inlined = inline_pass();
      pooled = pass(&pool_latency);
    }
    ++iteration;
    state.SetIterationTime(pooled);
    ratios.push_back(inlined / pooled);
    inline_seconds += inlined;
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t n = ratios.size();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * tasks);
  state.counters["inline_tasks_per_s"] =
      static_cast<double>(state.iterations()) * static_cast<double>(tasks) / inline_seconds;
  state.counters["pool_over_inline"] = (ratios[(n - 1) / 2] + ratios[n / 2]) / 2.0;
  state.counters["pool_width"] = static_cast<double>(qnet::AffinityWidth());
  state.counters["pool_latency_p50_ms"] = Quantile(pool_latency, 0.5);
  state.counters["pool_latency_p90_ms"] = Quantile(pool_latency, 0.9);
  state.counters["inline_latency_p50_ms"] = Quantile(inline_latency, 0.5);
  state.counters["inline_latency_p90_ms"] = Quantile(inline_latency, 0.9);
}

// One timed run of `options` over the fixture; appends its window latencies.
template <typename Estimator, typename Options>
double TimedRun(const Fixture& fixture, const std::vector<double>& init, Options options,
                std::vector<double>* latencies_ms) {
  std::vector<StampedReplay::Clock::time_point> pulled_at;
  pulled_at.reserve(static_cast<std::size_t>(fixture.truth.NumTasks()));
  StampedReplay stream(fixture, &pulled_at);
  if constexpr (std::is_same_v<Options, qnet::ShardedStreamingOptions>) {
    options.stream.on_window = LatencyHook(fixture, pulled_at, latencies_ms);
  } else {
    options.on_window = LatencyHook(fixture, pulled_at, latencies_ms);
  }
  Estimator estimator(init, 17, options);
  const qnet::Stopwatch watch;
  benchmark::DoNotOptimize(estimator.Run(stream).size());
  return watch.ElapsedSeconds();
}

// End-to-end fleet estimation with realistic per-window fits, pooled against inline.
void BM_FleetEstimate(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(2000);
  const qnet::ShardedStreamingOptions options = FleetOptions(lanes, 12, 4);
  const std::vector<double> init = InitRates(fixture);
  TimePoolAgainstInline(
      state,
      [&](std::vector<double>* latencies_ms) {
        return TimedRun<qnet::ShardedStreamingEstimator>(fixture, init, options, latencies_ms);
      },
      2000);
  state.counters["lanes"] = static_cast<double>(lanes);
}
BENCHMARK(BM_FleetEstimate)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseManualTime();

// A K = 1 monitor with the warm-start fast path: each window's StEM fit starts from its
// own mean-field fit, so consecutive fits run alongside each other on the pool.
void BM_WarmStartPool(benchmark::State& state) {
  const Fixture fixture = MakeFixture(2000);
  qnet::StreamingEstimatorOptions options = FleetOptions(1, 12, 4).stream;
  options.fast_path = qnet::FastPathMode::kWarmStart;
  const std::vector<double> init = InitRates(fixture);
  TimePoolAgainstInline(
      state,
      [&](std::vector<double>* latencies_ms) {
        return TimedRun<qnet::StreamingEstimator>(fixture, init, options, latencies_ms);
      },
      2000);
}
BENCHMARK(BM_WarmStartPool)->Unit(benchmark::kMillisecond)->UseManualTime();

// The K=1 overhead pin: plain-estimator and K=1 fleet passes over the same fixture and
// options, interleaved (the order alternates every iteration) so drift of a shared host
// falls on both. Reports both rates and their ratio; CI gates fleet_over_plain >= 0.9.
void BM_FleetVsPlainK1(benchmark::State& state) {
  const Fixture fixture = MakeFixture(2000);
  const qnet::ShardedStreamingOptions options = FleetOptions(1, 12, 4);
  const std::vector<double> init = InitRates(fixture);
  const auto plain_pass = [&] {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::StreamingEstimator estimator(init, 17, options.stream);
    const qnet::Stopwatch watch;
    benchmark::DoNotOptimize(estimator.Run(stream).size());
    return watch.ElapsedSeconds();
  };
  const auto fleet_pass = [&] {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::ShardedStreamingEstimator fleet(init, 17, options);
    const qnet::Stopwatch watch;
    benchmark::DoNotOptimize(fleet.Run(stream).size());
    return watch.ElapsedSeconds();
  };
  double plain_seconds = 0.0;
  double fleet_seconds = 0.0;
  bool plain_first = true;
  for (auto _ : state) {
    if (plain_first) {
      plain_seconds += plain_pass();
      fleet_seconds += fleet_pass();
    } else {
      fleet_seconds += fleet_pass();
      plain_seconds += plain_pass();
    }
    plain_first = !plain_first;
  }
  const double tasks = static_cast<double>(state.iterations()) * 2000.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * 2000);
  state.counters["plain_tasks_per_s"] = tasks / plain_seconds;
  state.counters["fleet_tasks_per_s"] = tasks / fleet_seconds;
  state.counters["fleet_over_plain"] = plain_seconds / fleet_seconds;
}
BENCHMARK(BM_FleetVsPlainK1)->MinTime(0.5)->Unit(benchmark::kMillisecond)->UseRealTime();

// Allocation counter: operator-new calls per ingested task, per lane count. Each StEM
// fit rebuilds a recycled window log in place and runs on a fit-pool worker's reused
// StemWorkspace, so what is left is each worker's and each recycled log's cold first
// window, the pool's threads (W > 1) and the per-window results. What the gate protects
// is that lane count does not multiply the per-task cost — lanes recycle their record
// capacity and fits recycle their logs.
void BM_FleetAllocations(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(2000);
  const qnet::ShardedStreamingOptions options = FleetOptions(lanes, 2, 1);
  const std::vector<double> init = InitRates(fixture);
  // Warm-up pass outside the counted region.
  {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::ShardedStreamingEstimator fleet(init, 17, options);
    benchmark::DoNotOptimize(fleet.Run(stream).size());
  }
  std::size_t tasks = 0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::ShardedStreamingEstimator fleet(init, 17, options);
    benchmark::DoNotOptimize(fleet.Run(stream).size());
    tasks += 2000;
  }
  const std::size_t after = AllocationCount();
  state.counters["lanes"] = static_cast<double>(lanes);
  state.counters["allocs_per_task"] =
      tasks > 0 ? static_cast<double>(after - before) / static_cast<double>(tasks) : 0.0;
}
BENCHMARK(BM_FleetAllocations)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// --- Sampler-free fleet: the record path -----------------------------------------------

// A three-tier stream at lambda = 100 with 10 s windows (~1k tasks per window).
constexpr std::size_t kMeanFieldTasks = 20000;

struct MeanFieldFixture {
  std::vector<qnet::TaskRecord> records;
  int num_queues = 0;
};

MeanFieldFixture MakeMeanFieldFixture() {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 100.0;
  config.service_rate = 160.0;
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::Rng rng(4242);
  const qnet::EventLog truth =
      qnet::SimulateWorkload(net, qnet::PoissonArrivals(100.0, 2 * kMeanFieldTasks), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = 0.2;
  const qnet::Observation obs = scheme.Apply(truth, rng);
  MeanFieldFixture fixture;
  fixture.num_queues = truth.NumQueues();
  for (int k = 0; k < truth.NumTasks(); ++k) {
    fixture.records.push_back(qnet::MakeTaskRecord(truth, obs, k));
  }
  return fixture;
}

qnet::ShardedStreamingOptions MeanFieldFleetOptions(std::size_t lanes) {
  qnet::ShardedStreamingOptions options;
  options.lanes = lanes;
  options.stream.window.window_duration = 10.0;
  options.stream.fast_path = qnet::FastPathMode::kMeanFieldOnly;
  return options;
}

// Replays the first `tasks` fixture records; Next copy-assigns into the caller's record,
// so the stream itself allocates nothing per task.
class PrefixStream : public qnet::TraceStream {
 public:
  PrefixStream(const MeanFieldFixture& fixture, std::size_t tasks)
      : fixture_(fixture), tasks_(tasks) {}
  bool Next(qnet::TaskRecord& out) override {
    if (at_ == tasks_) {
      return false;
    }
    out = fixture_.records[at_++];
    return true;
  }
  int NumQueues() const override { return fixture_.num_queues; }

 private:
  const MeanFieldFixture& fixture_;
  std::size_t tasks_;
  std::size_t at_ = 0;
};

std::size_t RunMeanFieldFleet(const MeanFieldFixture& fixture, std::size_t tasks,
                              const qnet::ShardedStreamingOptions& options) {
  PrefixStream stream(fixture, tasks);
  qnet::ShardedStreamingEstimator fleet(
      std::vector<double>(static_cast<std::size_t>(fixture.num_queues), 1.0), 17, options);
  return fleet.Run(stream).size();
}

// The sampler-free fleet's ingest rate; its lanes run on the caller's thread at any K.
void BM_FleetMeanFieldIngest(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const MeanFieldFixture fixture = MakeMeanFieldFixture();
  const qnet::ShardedStreamingOptions options = MeanFieldFleetOptions(lanes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunMeanFieldFleet(fixture, kMeanFieldTasks, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMeanFieldTasks));
  state.counters["lanes"] = static_cast<double>(lanes);
}
BENCHMARK(BM_FleetMeanFieldIngest)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Marginal allocations: each iteration runs the fleet over N and over 2N tasks and
// charges the difference to the N extra tasks, so fleet setup and the growth of each
// lane's buffers to the widest window cancel out.
void BM_FleetMeanFieldAllocations(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const MeanFieldFixture fixture = MakeMeanFieldFixture();
  const qnet::ShardedStreamingOptions options = MeanFieldFleetOptions(lanes);
  double extra_allocations = 0.0;
  for (auto _ : state) {
    const std::size_t start = AllocationCount();
    benchmark::DoNotOptimize(RunMeanFieldFleet(fixture, kMeanFieldTasks, options));
    const std::size_t middle = AllocationCount();
    benchmark::DoNotOptimize(RunMeanFieldFleet(fixture, 2 * kMeanFieldTasks, options));
    const std::size_t end = AllocationCount();
    extra_allocations += static_cast<double>(end - middle) - static_cast<double>(middle - start);
  }
  state.counters["lanes"] = static_cast<double>(lanes);
  state.counters["allocs_per_task"] =
      extra_allocations /
      (static_cast<double>(state.iterations()) * static_cast<double>(kMeanFieldTasks));
}
BENCHMARK(BM_FleetMeanFieldAllocations)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- TaskHash: contract version 2 against version 1 --------------------------------------

std::uint64_t HashBits(double x) {
  if (x == 0.0) {
    x = 0.0;
  }
  return std::bit_cast<std::uint64_t>(x);
}

// Contract version 1 of TaskHash: the same words as version 2, folded into ONE
// HashCombine chain, 2 + 3 * visits SplitMix64 steps in series. Kept only as the in-run
// reference of BM_TaskHash.
std::uint64_t TaskHashV1(const qnet::TaskRecord& record) {
  std::uint64_t h = 0x71ee2bd356ad5e3fULL;
  h = qnet::HashCombine(h, HashBits(record.entry_time));
  h = qnet::HashCombine(h, static_cast<std::uint64_t>(record.visits.size()));
  for (const qnet::TaskVisit& visit : record.visits) {
    h = qnet::HashCombine(
        h, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(visit.queue)) << 32) |
               static_cast<std::uint64_t>(static_cast<std::uint32_t>(visit.state)));
    h = qnet::HashCombine(h, HashBits(visit.arrival));
    h = qnet::HashCombine(h, HashBits(visit.departure));
  }
  return h;
}

// 1024 records of V visits hashed by each version in turn every iteration (the order
// alternates), so host drift falls on both; the calls within a pass are independent, as
// the router's are. Reports ns per record of each and v2_over_v1, their time ratio.
void BM_TaskHash(benchmark::State& state) {
  const auto visits = static_cast<std::size_t>(state.range(0));
  qnet::Rng rng(99);
  std::vector<qnet::TaskRecord> records(1024);
  double t = 0.0;
  for (qnet::TaskRecord& record : records) {
    t += rng.Exponential(100.0);
    record.entry_time = t;
    double at = t;
    for (std::size_t v = 0; v < visits; ++v) {
      qnet::TaskVisit visit;
      visit.state = static_cast<std::int32_t>(v);
      visit.queue = static_cast<std::int32_t>(v + 1);
      visit.arrival = at;
      at += rng.Exponential(160.0);
      visit.departure = at;
      record.visits.push_back(visit);
    }
  }
  const auto pass = [&](auto hash, double& seconds) {
    const qnet::Stopwatch watch;
    std::uint64_t sink = 0;
    for (const qnet::TaskRecord& record : records) {
      sink ^= hash(record);
    }
    benchmark::DoNotOptimize(sink);
    seconds += watch.ElapsedSeconds();
  };
  const auto v2 = [](const qnet::TaskRecord& record) { return qnet::TaskHash(record); };
  double v1_seconds = 0.0;
  double v2_seconds = 0.0;
  bool v2_first = true;
  for (auto _ : state) {
    if (v2_first) {
      pass(v2, v2_seconds);
      pass(TaskHashV1, v1_seconds);
    } else {
      pass(TaskHashV1, v1_seconds);
      pass(v2, v2_seconds);
    }
    v2_first = !v2_first;
  }
  const double hashed = static_cast<double>(state.iterations()) * 1024.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * 1024);
  state.counters["v2_ns_per_record"] = v2_seconds * 1e9 / hashed;
  state.counters["v1_ns_per_record"] = v1_seconds * 1e9 / hashed;
  state.counters["v2_over_v1"] = v2_seconds / v1_seconds;
}
BENCHMARK(BM_TaskHash)->Arg(1)->Arg(3)->Arg(8)->UseRealTime();

}  // namespace
