// Microbenchmarks: Gibbs sweep, initializer and allocation-count throughput
// (google-benchmark).
//
// Workflow (tracked in CI as BENCH_gibbs.json; compare runs with benchmark's
// tools/compare.py):
//   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
//   ./build/perf_gibbs --benchmark_format=json > BENCH_gibbs.json
//   ./build/perf_gibbs --benchmark_filter='BM_GibbsSweep/500'   # the headline number
// Headline metrics:
//   BM_GibbsSweep/N items_per_second   — latent arrival moves per second (N tasks,
//                                        three-tier {1,2,4} fixture, 10% tasks observed;
//                                        the batched SoA kernel on the colored schedule —
//                                        the one sweep path). N = 50000 is ungated: it
//                                        shows the locality cliff against N = 500;
//   BM_GibbsSweepReference/N           — the same schedule driven through the
//                                        move-at-a-time reference kernel
//                                        (tests/support/reference_sweep.h): identical
//                                        buckets, identical lane streams, bit-identical
//                                        states. CI gates BM_GibbsSweep/500's
//                                        items_per_second against this row's in-run
//                                        (see .github/workflows/ci.yml);
//   BM_GibbsSweepAllocations allocs_per_sweep — global operator-new calls per sweep;
//                                        must stay exactly 0 (see tests/test_alloc_free.cc
//                                        for the hard assertion);
//   BM_ScheduleRebuild/N rebuild_over_sweep — one ShardedSweepScheduler::Rebuild (the
//                                        coloring, counting sort and geometry a StEM
//                                        window pays once) over one sweep, both timed in
//                                        each iteration on the same N-task fixture;
//                                        allocs_per_rebuild must stay exactly 0. CI gates
//                                        the median of rebuild_over_sweep over
//                                        interleaved repetitions.

#include <benchmark/benchmark.h>

// Counting allocator (defines global operator new/delete; one TU per binary): lets the
// allocation benchmarks report exact counts alongside timings.
#include "../tests/support/counting_allocator.h"
#include "../tests/support/reference_sweep.h"

#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/infer/sharded_sweep.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/rng.h"
#include "qnet/support/stopwatch.h"

namespace {

using qnet_testing::AllocationCount;

struct Fixture {
  qnet::EventLog truth;
  qnet::Observation obs;
  std::vector<double> rates;
  qnet::EventLog init;
};

Fixture MakeFixture(std::size_t tasks, double fraction) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::Rng rng(12345);
  qnet::EventLog truth =
      qnet::SimulateWorkload(net, qnet::PoissonArrivals(10.0, tasks), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = fraction;
  qnet::Observation obs = scheme.Apply(truth, rng);
  std::vector<double> rates = net.ExponentialRates();
  qnet::EventLog init = qnet::InitializeFeasible(truth, obs, rates, rng);
  return Fixture{std::move(truth), std::move(obs), std::move(rates), std::move(init)};
}

void BM_GibbsSweep(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks, 0.1);
  qnet::GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  qnet::Rng rng(7);
  for (auto _ : state) {
    sampler.Sweep(rng);
    benchmark::DoNotOptimize(sampler.State().Arrival(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sampler.NumLatentArrivals()));
  state.counters["latent_arrivals"] =
      static_cast<double>(sampler.NumLatentArrivals());
}
BENCHMARK(BM_GibbsSweep)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// The batched kernel's protocol-matched A/B partner: the SAME colored schedule and the
// SAME per-lane streams as BM_GibbsSweep, executed move-at-a-time through the reference
// kernel (qnet_testing::ReferenceSweeper), so the two rows produce bit-identical states
// (the equality the tests in tests/test_move_batch.cc pin down) and their throughput ratio
// isolates exactly what batch-at-a-time execution buys: SoA finalize/sample vmath sweeps
// versus per-move scalar transcendentals over an identical gather/scatter stream.
void BM_GibbsSweepReference(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks, 0.1);
  qnet_testing::ReferenceSweeper reference(fixture.init, fixture.obs, fixture.rates);
  qnet::Rng rng(7);
  for (auto _ : state) {
    reference.Sweep(rng);
    benchmark::DoNotOptimize(reference.State().Arrival(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(reference.NumLatentArrivals()));
  state.counters["latent_arrivals"] =
      static_cast<double>(reference.NumLatentArrivals());
}
BENCHMARK(BM_GibbsSweepReference)->Arg(500)->Unit(benchmark::kMillisecond);

// Allocation count per sweep on the fast path. The counter is exact (every operator new in
// the process), so the benchmark pauses timing around the measured region is unnecessary —
// we simply diff the counter across the iteration. Expected value: 0.
void BM_GibbsSweepAllocations(benchmark::State& state) {
  const Fixture fixture = MakeFixture(500, 0.1);
  qnet::GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  qnet::Rng rng(7);
  sampler.Sweep(rng);  // warm-up outside the counted region
  const std::size_t before = AllocationCount();
  std::size_t sweeps = 0;
  for (auto _ : state) {
    sampler.Sweep(rng);
    ++sweeps;
  }
  const std::size_t after = AllocationCount();
  state.counters["allocs_per_sweep"] =
      sweeps > 0 ? static_cast<double>(after - before) / static_cast<double>(sweeps) : 0.0;
}
BENCHMARK(BM_GibbsSweepAllocations)->Unit(benchmark::kMillisecond);

// Rebuild against sweep, in-run: each iteration rebuilds a warm scheduler from the
// sampler's move list and then sweeps once, so host drift falls on both timings alike.
void BM_ScheduleRebuild(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks, 0.1);
  qnet::GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  const std::vector<qnet::SweepMove> moves = sampler.SweepMoves();
  qnet::ShardedSweepScheduler scheduler;
  qnet::Rng rng(7);
  scheduler.Rebuild(sampler.State(), moves);  // warm-up sizes both
  sampler.Sweep(rng);
  std::uint64_t rebuild_ns = 0;
  std::uint64_t sweep_ns = 0;
  std::size_t allocations = 0;
  for (auto _ : state) {
    const std::size_t before = AllocationCount();
    const qnet::Stopwatch rebuild;
    scheduler.Rebuild(sampler.State(), moves);
    rebuild_ns += rebuild.ElapsedNanos();
    allocations += AllocationCount() - before;
    const qnet::Stopwatch sweep;
    sampler.Sweep(rng);
    sweep_ns += sweep.ElapsedNanos();
    benchmark::DoNotOptimize(scheduler.NumColors());
  }
  const double iterations = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(moves.size()));
  state.counters["rebuild_over_sweep"] =
      static_cast<double>(rebuild_ns) / static_cast<double>(sweep_ns);
  state.counters["rebuild_us"] = 1e-3 * static_cast<double>(rebuild_ns) / iterations;
  state.counters["sweep_us"] = 1e-3 * static_cast<double>(sweep_ns) / iterations;
  state.counters["allocs_per_rebuild"] = static_cast<double>(allocations) / iterations;
}
BENCHMARK(BM_ScheduleRebuild)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_Initializer(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks, 0.1);
  qnet::Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qnet::InitializeFeasible(fixture.truth, fixture.obs, fixture.rates, rng));
  }
}
BENCHMARK(BM_Initializer)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
