// Streaming-engine benchmarks: sustained ingest throughput and bounded-memory /
// steady-state allocation contracts (google-benchmark).
//
// Workflow (tracked in CI as BENCH_stream.json):
//   ./build/perf_stream --benchmark_format=json > BENCH_stream.json
// Headline metrics:
//   BM_StreamAssemble/N items_per_second — tasks/s through replay -> WindowAssembler ->
//                                          per-window EventLog+Observation build (no StEM);
//   BM_StreamEstimate/P items_per_second — end-to-end tasks/s including the per-window
//                                          warm-started StEM runs (P=1 pipelines window
//                                          N's sweeps with window N+1's ingestion);
//   BM_StreamBoundedMemory/N peak_buffered_tasks — assembler high-water mark on a
//                                          uniformly spaced synthetic stream; MUST be
//                                          identical across N (CI gates equality: memory
//                                          is bounded by the window, not the trace);
//   BM_StreamSteadyStateAllocations allocs_per_task — global operator-new calls per
//                                          ingested task in steady state; CI gates an
//                                          upper bound. The plain assembler hands each
//                                          window an owned log (a pipelined fit may
//                                          still hold the previous one), so its window
//                                          build allocates; the cost per task must stay
//                                          small and constant. Lane workers rebuild one
//                                          log in place and allocate nothing for it
//                                          once warm (AllocFree.WarmWindowBuild...).

#include <benchmark/benchmark.h>

// Counting allocator (defines global operator new/delete; one TU per binary).
#include "../tests/support/counting_allocator.h"

#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/live_stream.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/window_assembler.h"
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

qnet::WindowAssemblerOptions AssemblerOptions() {
  qnet::WindowAssemblerOptions options;
  options.window_duration = 5.0;  // ~50 tasks per window at rate 10
  options.min_tasks_per_window = 8;
  return options;
}

// Replay -> assembler -> per-window log build, windows discarded (isolates ingest cost).
void BM_StreamAssemble(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks);
  std::size_t windows = 0;
  std::size_t peak = 0;
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::WindowAssembler assembler(stream.NumQueues(), AssemblerOptions());
    qnet::TaskRecord record;
    while (stream.Next(record)) {
      assembler.Push(record);
      while (assembler.HasClosed()) {
        const qnet::ClosedWindow window = assembler.PopClosed();
        benchmark::DoNotOptimize(window.log.NumEvents());
        ++windows;
      }
    }
    assembler.FinishStream();
    while (assembler.HasClosed()) {
      assembler.PopClosed();
      ++windows;
    }
    peak = assembler.Stats().peak_buffered_tasks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
  state.counters["windows_per_pass"] =
      static_cast<double>(windows) / static_cast<double>(state.iterations());
  state.counters["peak_buffered_tasks"] = static_cast<double>(peak);
}
BENCHMARK(BM_StreamAssemble)->Arg(2000)->Arg(16000)->Unit(benchmark::kMillisecond);

// End-to-end: replay -> assembler -> warm-started windowed StEM. range(0) toggles
// pipelining (results are bit-identical either way; only wall-clock changes).
void BM_StreamEstimate(benchmark::State& state) {
  const Fixture fixture = MakeFixture(2000);
  qnet::StreamingEstimatorOptions options;
  options.window = AssemblerOptions();
  options.stem.iterations = 12;
  options.stem.burn_in = 4;
  options.stem.wait_sweeps = 0;
  options.pipeline = state.range(0) != 0;
  const std::vector<double> init(
      static_cast<std::size_t>(fixture.truth.NumQueues()), 1.0);
  double tasks_per_second = 0.0;
  double max_lag = 0.0;
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::StreamingEstimator estimator(init, 17, options);
    const auto estimates = estimator.Run(stream);
    benchmark::DoNotOptimize(estimates.size());
    tasks_per_second = estimator.Stats().tasks_per_second;
    max_lag = estimator.Stats().max_sweep_lag_seconds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
  state.counters["tasks_per_sec_last_pass"] = tasks_per_second;
  state.counters["max_sweep_lag_ms"] = max_lag * 1e3;
  state.counters["pipeline"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_StreamEstimate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Live incremental simulation feeding the assembler: the sim-layer backend's throughput.
void BM_StreamLiveSim(benchmark::State& state) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::LiveSimOptions options;
  options.max_tasks = 2000;
  options.arrival_rate = 10.0;
  options.observed_fraction = 0.25;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    qnet::LiveSimStream stream(net, options, seed++);
    qnet::WindowAssembler assembler(stream.NumQueues(), AssemblerOptions());
    qnet::TaskRecord record;
    while (stream.Next(record)) {
      assembler.Push(record);
      while (assembler.HasClosed()) {
        benchmark::DoNotOptimize(assembler.PopClosed().log.NumEvents());
      }
    }
    assembler.FinishStream();
    while (assembler.HasClosed()) {
      assembler.PopClosed();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.max_tasks));
}
BENCHMARK(BM_StreamLiveSim)->Unit(benchmark::kMillisecond);

// Bounded-memory witness: uniformly spaced entries, one task per second, 5 s windows.
// peak_buffered_tasks must be IDENTICAL for every N — the assembler retains one open
// window plus the last closed window (trailing-merge copy), never the trace. CI gates
// the equality across the two Args.
void BM_StreamBoundedMemory(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  qnet::TaskRecord record;
  qnet::TaskVisit visit;
  visit.state = 0;
  visit.queue = 1;
  record.visits.push_back(visit);
  std::size_t peak = 0;
  for (auto _ : state) {
    qnet::WindowAssembler assembler(2, AssemblerOptions());
    for (std::size_t k = 0; k < tasks; ++k) {
      const double entry = 0.5 + static_cast<double>(k);
      record.entry_time = entry;
      record.visits[0].arrival = entry;
      record.visits[0].departure = entry + 0.01;
      assembler.Push(record);
      while (assembler.HasClosed()) {
        benchmark::DoNotOptimize(assembler.PopClosed().num_tasks);
      }
    }
    assembler.FinishStream();
    while (assembler.HasClosed()) {
      assembler.PopClosed();
    }
    peak = assembler.Stats().peak_buffered_tasks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
  state.counters["peak_buffered_tasks"] = static_cast<double>(peak);
}
BENCHMARK(BM_StreamBoundedMemory)->Arg(4000)->Arg(32000)->Unit(benchmark::kMillisecond);

// Steady-state allocation counter: operator-new calls per ingested task once the replay
// loop is warm (TaskRecord reuse means the per-task cost is the per-window log build
// amortized over its tasks). Gated in CI.
void BM_StreamSteadyStateAllocations(benchmark::State& state) {
  const Fixture fixture = MakeFixture(4000);
  // Warm-up pass outside the counted region.
  {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::WindowAssembler assembler(stream.NumQueues(), AssemblerOptions());
    qnet::TaskRecord record;
    while (stream.Next(record)) {
      assembler.Push(record);
      while (assembler.HasClosed()) {
        assembler.PopClosed();
      }
    }
  }
  std::size_t tasks = 0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    qnet::WindowAssembler assembler(stream.NumQueues(), AssemblerOptions());
    qnet::TaskRecord record;
    while (stream.Next(record)) {
      assembler.Push(record);
      ++tasks;
      while (assembler.HasClosed()) {
        assembler.PopClosed();
      }
    }
    assembler.FinishStream();
    while (assembler.HasClosed()) {
      assembler.PopClosed();
    }
  }
  const std::size_t after = AllocationCount();
  state.counters["allocs_per_task"] =
      tasks > 0 ? static_cast<double>(after - before) / static_cast<double>(tasks) : 0.0;
}
BENCHMARK(BM_StreamSteadyStateAllocations)->Unit(benchmark::kMillisecond);

}  // namespace
