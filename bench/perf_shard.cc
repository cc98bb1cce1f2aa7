// Sharded streaming front-end benchmarks: lane-ingest throughput, fleet end-to-end
// estimation throughput vs the plain StreamingEstimator, and the per-task allocation
// footprint across lane counts (google-benchmark).
//
// Workflow (tracked in CI as BENCH_shard.json):
//   ./build/perf_shard --benchmark_format=json > BENCH_shard.json
// Headline metrics:
//   BM_LaneIngest/K items_per_second      — tasks/s through router -> K lane queues ->
//                                           per-lane window assembly with a minimal StEM
//                                           (2 iterations), isolating the partition/queue/
//                                           assembly cost;
//   BM_FleetEstimate/K items_per_second   — end-to-end tasks/s including realistic
//                                           per-window warm-started StEM fits per lane
//                                           (shows lane scaling on multi-core hardware;
//                                           flat on the 1-core CI box);
//   BM_PlainStreamEstimate items_per_second — the StreamingEstimator baseline with the
//                                           SAME options; CI gates BM_FleetEstimate/1
//                                           within 10% of it (the plain estimator runs
//                                           as the single-lane fleet, so both take the
//                                           same in-thread path: router, one lane and
//                                           merger on the caller's thread);
//   BM_FleetAllocations/K allocs_per_task — global operator-new calls per ingested task;
//                                           CI gates a bound AND flatness across K (the
//                                           queue ring reuses slot capacity, so lane
//                                           count must not buy per-task allocations).

#include <benchmark/benchmark.h>

// Counting allocator (defines global operator new/delete; one TU per binary).
#include "../tests/support/counting_allocator.h"

#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/support/rng.h"

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
  options.lane_queue_capacity = 256;
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

// Router -> lane queues -> per-lane assembly with a minimal fit: the ingest path cost.
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

// End-to-end fleet estimation with realistic per-window fits.
void BM_FleetEstimate(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(2000);
  const qnet::ShardedStreamingOptions options = FleetOptions(lanes, 12, 4);
  const std::vector<double> init = InitRates(fixture);
  double merge_lag = 0.0;
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::ShardedStreamingEstimator fleet(init, 17, options);
    const auto estimates = fleet.Run(stream);
    benchmark::DoNotOptimize(estimates.size());
    merge_lag = fleet.Stats().max_merge_lag_seconds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
  state.counters["lanes"] = static_cast<double>(lanes);
  state.counters["max_merge_lag_ms"] = merge_lag * 1e3;
}
BENCHMARK(BM_FleetEstimate)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// The plain-estimator baseline for the K=1 overhead gate (same fixture, same options).
void BM_PlainStreamEstimate(benchmark::State& state) {
  const Fixture fixture = MakeFixture(2000);
  const qnet::ShardedStreamingOptions reference = FleetOptions(1, 12, 4);
  const std::vector<double> init = InitRates(fixture);
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::StreamingEstimator estimator(init, 17, reference.stream);
    const auto estimates = estimator.Run(stream);
    benchmark::DoNotOptimize(estimates.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_PlainStreamEstimate)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Allocation counter: operator-new calls per ingested task, per lane count. The StEM
// fits allocate by design (samplers, per-window results); each lane rebuilds its window
// log in place. What the gate protects is that lane count does not multiply the
// per-task cost — queue slots and pop targets recycle their record capacity.
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

}  // namespace
