// Microbenchmarks: discrete-event simulator and workload-generation throughput.
//
// Workflow (tracked in CI as BENCH_sim.json):
//   ./build/perf_sim --benchmark_format=json > BENCH_sim.json
// Headline metrics:
//   BM_SimulateThreeTier/N items_per_second — simulated visits/s through the batch
//                                             entry points (EventLog materialized);
//   BM_SimulateWarmArena/N  allocs_per_task — operator-new calls per simulated task on a
//                                             warm SimScratch. The CI-gated floor: must
//                                             stay exactly 0 (the arena contract);
//   BM_LiveSimStream        allocs_per_task — the same floor for the live generator
//                                             (LiveSimStream on its compacted arena, one
//                                             reused TaskRecord), CI-gated at 0 too.

#include <benchmark/benchmark.h>

// Counting allocator (defines global operator new/delete; one TU per binary).
#include "../tests/support/counting_allocator.h"

#include "qnet/model/builders.h"
#include "qnet/sim/sim_scratch.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/live_stream.h"
#include "qnet/support/rng.h"
#include "qnet/webapp/movievote.h"

namespace {

using qnet_testing::AllocationCount;

void BM_SimulateThreeTier(benchmark::State& state) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  const auto tasks = static_cast<std::size_t>(state.range(0));
  qnet::Rng rng(21);
  for (auto _ : state) {
    const qnet::EventLog log =
        qnet::SimulateWorkload(net, qnet::PoissonArrivals(10.0, tasks), rng);
    benchmark::DoNotOptimize(log.NumEvents());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks * 4));
}
BENCHMARK(BM_SimulateThreeTier)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_SimulateWarmArena(benchmark::State& state) {
  // The allocation-free fast path: same tandem DES, but into a reused SimScratch with no
  // EventLog export. After the warm-up run every iteration is heap-silent, which the
  // allocs_per_task counter pins in CI.
  const qnet::QueueingNetwork net = qnet::MakeTandemNetwork(2.0, {5.0, 4.0});
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const qnet::PoissonArrivals workload(2.0, tasks);
  qnet::SimScratch scratch;
  qnet::Rng rng(37);
  qnet::SimulateWorkloadIntoScratch(net, workload, scratch, rng);  // warm-up
  std::size_t simulated = 0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    qnet::SimulateWorkloadIntoScratch(net, workload, scratch, rng);
    benchmark::DoNotOptimize(scratch.step_departure.data());
    simulated += tasks;
  }
  const std::size_t after = AllocationCount();
  state.SetItemsProcessed(static_cast<std::int64_t>(simulated));
  state.counters["allocs_per_task"] =
      simulated > 0 ? static_cast<double>(after - before) / static_cast<double>(simulated)
                    : 0.0;
}
BENCHMARK(BM_SimulateWarmArena)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_LiveSimStream(benchmark::State& state) {
  // The live generator alone, one task per iteration: an unbounded LiveSimStream on the
  // three-tier {1, 2, 4} network (front tier at rho 0.6) pulled into one reused
  // TaskRecord. Warm-up pulls bring the arena to its working size; after them every
  // pull is heap-silent.
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 3.0;
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::LiveSimOptions options;
  options.horizon = 1.0e15;
  options.arrival_rate = 3.0;
  options.observed_fraction = 0.2;
  qnet::LiveSimStream stream(net, options, 43);
  qnet::TaskRecord record;
  for (int i = 0; i < 10000; ++i) {
    stream.Next(record);
  }
  std::size_t pulled = 0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    pulled += stream.Next(record) ? 1 : 0;
    benchmark::DoNotOptimize(record.visits.data());
  }
  const std::size_t after = AllocationCount();
  state.SetItemsProcessed(static_cast<std::int64_t>(pulled));
  state.counters["allocs_per_task"] =
      pulled > 0 ? static_cast<double>(after - before) / static_cast<double>(pulled) : 0.0;
}
BENCHMARK(BM_LiveSimStream);

void BM_SimulateMovieVote(benchmark::State& state) {
  const qnet::webapp::MovieVoteConfig config;
  const qnet::webapp::MovieVoteTestbed testbed = qnet::webapp::MakeTestbed(config);
  qnet::Rng rng(23);
  for (auto _ : state) {
    const qnet::EventLog log = qnet::webapp::GenerateTrace(testbed, config, rng);
    benchmark::DoNotOptimize(log.NumEvents());
  }
}
BENCHMARK(BM_SimulateMovieVote)->Unit(benchmark::kMillisecond);

void BM_NhppRampGeneration(benchmark::State& state) {
  const qnet::LinearRampArrivals workload(1.0, 5.4, 1800.0);
  qnet::Rng rng(29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.Generate(rng).size());
  }
}
BENCHMARK(BM_NhppRampGeneration)->Unit(benchmark::kMillisecond);

void BM_FeasibilityCheck(benchmark::State& state) {
  const qnet::QueueingNetwork net = qnet::MakeTandemNetwork(2.0, {5.0, 4.0});
  qnet::Rng rng(31);
  const qnet::EventLog log =
      qnet::SimulateWorkload(net, qnet::PoissonArrivals(2.0, 5000), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.IsFeasible());
  }
}
BENCHMARK(BM_FeasibilityCheck)->Unit(benchmark::kMillisecond);

}  // namespace
