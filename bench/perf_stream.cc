// Streaming-engine benchmarks: sustained ingest throughput and bounded-memory /
// steady-state allocation contracts (google-benchmark).
//
// Workflow (tracked in CI as BENCH_stream.json):
//   ./build/perf_stream --benchmark_format=json > BENCH_stream.json
// Every row runs the production window path: a StreamingEstimator, the single-lane
// fleet on the caller's thread. Except in BM_StreamEstimate its lane keeps its records
// (the record path of windows StEM may fit: buffer, selection, trailing-merge copy) but
// fits every window by mean field (FastPathMode::kDegrade with a 0-task budget), so the
// rows time and count the window path, not the sampler.
// Headline metrics:
//   BM_StreamAssemble/N items_per_second — tasks/s through replay -> span tracker ->
//                                          lane record fold, buffer and selection ->
//                                          mean-field window fit (no StEM);
//   BM_StreamEstimate/0 items_per_second — end-to-end tasks/s including the per-window
//                                          warm-started StEM runs (CI floor);
//   BM_StreamBoundedMemory/N peak_buffered_tasks — the lane's buffer high-water mark on
//                                          a uniformly spaced synthetic stream; MUST be
//                                          identical across N (CI gates equality: memory
//                                          is bounded by the window, not the trace);
//   BM_StreamSteadyStateAllocations allocs_per_task — global operator-new calls per
//                                          ingested task in steady state; CI gates an
//                                          upper bound. The lane recycles its record
//                                          capacity, so what is left is per window (the
//                                          fits and the estimate) plus each run's setup,
//                                          amortized over its tasks.

#include <benchmark/benchmark.h>

// Counting allocator (defines global operator new/delete; one TU per binary).
#include "../tests/support/counting_allocator.h"

#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/live_stream.h"
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

qnet::WindowAssemblerOptions WindowOptions() {
  qnet::WindowAssemblerOptions options;
  options.window_duration = 5.0;  // ~50 tasks per window at rate 10
  options.min_tasks_per_window = 8;
  return options;
}

// The window path without the sampler: the lane keeps its records, as a lane whose
// windows may reach StEM does, and every window degrades to its mean-field fit.
qnet::StreamingEstimatorOptions WindowPathOptions() {
  qnet::StreamingEstimatorOptions options;
  options.window = WindowOptions();
  options.fast_path = qnet::FastPathMode::kDegrade;
  options.degrade_task_budget = 0;
  return options;
}

// One pass of `stream` through the window path; returns the estimator's stats.
qnet::StreamingStats RunWindowPath(qnet::TraceStream& stream, std::size_t* windows = nullptr) {
  qnet::StreamingEstimator estimator(
      std::vector<double>(static_cast<std::size_t>(stream.NumQueues()), 1.0), 17,
      WindowPathOptions());
  const std::size_t estimated = estimator.Run(stream).size();
  benchmark::DoNotOptimize(estimated);
  if (windows != nullptr) {
    *windows += estimated;
  }
  return estimator.Stats();
}

// Replay -> window path, windows discarded (isolates ingest and window assembly cost).
void BM_StreamAssemble(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks);
  std::size_t windows = 0;
  std::size_t peak = 0;
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    peak = RunWindowPath(stream, &windows).peak_buffered_tasks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
  state.counters["windows_per_pass"] =
      static_cast<double>(windows) / static_cast<double>(state.iterations());
  state.counters["peak_buffered_tasks"] = static_cast<double>(peak);
}
BENCHMARK(BM_StreamAssemble)->Arg(2000)->Arg(16000)->Unit(benchmark::kMillisecond);

// End-to-end: replay -> windows -> warm-started windowed StEM, every window fitted and
// emitted on the caller's thread before the next record is pulled.
void BM_StreamEstimate(benchmark::State& state) {
  const Fixture fixture = MakeFixture(2000);
  qnet::StreamingEstimatorOptions options;
  options.window = WindowOptions();
  options.stem.iterations = 12;
  options.stem.burn_in = 4;
  options.stem.wait_sweeps = 0;
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
}
BENCHMARK(BM_StreamEstimate)->Arg(0)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Live incremental simulation feeding the window path: the sim-layer backend's
// throughput.
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
    RunWindowPath(stream);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.max_tasks));
}
BENCHMARK(BM_StreamLiveSim)->Unit(benchmark::kMillisecond);

// Uniformly spaced single-visit records, one per second; Next reuses the caller's record.
class UniformStream : public qnet::TraceStream {
 public:
  explicit UniformStream(std::size_t tasks) : tasks_(tasks) {}
  bool Next(qnet::TaskRecord& out) override {
    if (at_ == tasks_) {
      return false;
    }
    const double entry = 0.5 + static_cast<double>(at_++);
    out.entry_time = entry;
    out.visits.resize(1);
    qnet::TaskVisit& visit = out.visits[0];
    visit.state = 0;
    visit.queue = 1;
    visit.arrival = entry;
    visit.departure = entry + 0.01;
    return true;
  }
  int NumQueues() const override { return 2; }

 private:
  std::size_t tasks_;
  std::size_t at_ = 0;
};

// Bounded-memory witness: uniformly spaced entries, one task per second, 5 s windows.
// peak_buffered_tasks must be IDENTICAL for every N — the lane retains one open window
// plus the last closed window (trailing-merge copy), never the trace. CI gates the
// equality across the two Args.
void BM_StreamBoundedMemory(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  std::size_t peak = 0;
  for (auto _ : state) {
    UniformStream stream(tasks);
    peak = RunWindowPath(stream).peak_buffered_tasks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
  state.counters["peak_buffered_tasks"] = static_cast<double>(peak);
}
BENCHMARK(BM_StreamBoundedMemory)->Arg(4000)->Arg(32000)->Unit(benchmark::kMillisecond);

// Steady-state allocation counter: operator-new calls per ingested task once the replay
// loop is warm. Gated in CI.
void BM_StreamSteadyStateAllocations(benchmark::State& state) {
  const Fixture fixture = MakeFixture(4000);
  // Warm-up pass outside the counted region.
  {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    RunWindowPath(stream);
  }
  std::size_t tasks = 0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    qnet::LogReplayStream stream(fixture.truth, fixture.obs);
    tasks += RunWindowPath(stream).tasks_ingested;
  }
  const std::size_t after = AllocationCount();
  state.counters["allocs_per_task"] =
      tasks > 0 ? static_cast<double>(after - before) / static_cast<double>(tasks) : 0.0;
}
BENCHMARK(BM_StreamSteadyStateAllocations)->Unit(benchmark::kMillisecond);

}  // namespace
