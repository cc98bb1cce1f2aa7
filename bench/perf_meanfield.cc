// Mean-field fast-path benchmarks (google-benchmark).
//
// Workflow (tracked in CI as BENCH_meanfield.json):
//   ./build/perf_meanfield --benchmark_format=json > BENCH_meanfield.json
// Headline metrics and gates:
//   BM_MeanFieldFit items_per_second     — tasks/s through the O(events) variational fit
//                                          on a 500-task window; allocs_per_fit MUST be
//                                          exactly 0 (CI gates it), and items_per_second
//                                          must be >= 50x BM_WindowedStemFit's (the
//                                          sampler-free speedup the degraded mode and
//                                          warm starts are built on).
//   BM_WindowedStemFit items_per_second  — the same window through a bench-sized StEM
//                                          run (the denominator of the 50x gate).
//   BM_MeanFieldFoldRecords              — the same window as TaskRecords, folded
//                                          straight into the mean-field statistics and
//                                          fitted: a sampler-free lane window.
//                                          allocs_per_fit joins the zero gate, and
//                                          items_per_second must be >= 2.5x
//                                          BM_WindowBuildAndMeanFieldFit's in-run
//                                          (measured ~5x; 2x headroom).
//   BM_WindowBuildAndMeanFieldFit        — the same records built into a window log
//                                          (WindowLogBuilder) and fitted from it: what a
//                                          sampler-free window cost before the fold.
//   BM_WarmStartedStemWindow/{0,1}       — end-to-end streaming A/B: replay -> assembler
//                                          -> per-window StEM, cold-started full-length
//                                          (Arg 0) vs mean-field warm starts + early
//                                          stop (Arg 1). CI gates Arg 1 >= 1.5x Arg 0
//                                          items_per_second within the same run;
//                                          fit_iterations_total witnesses the savings.
//   BM_StemWindow                        — one monitor-shaped StEM window (three-tier
//                                          {1,2,4}, lambda 10, mu 16, 20% observed, 360
//                                          tasks, 60/20/20 iterations/burn-in/wait, no
//                                          early stop) run again and again through one
//                                          reused StemWorkspace (its sampler keeps the
//                                          schedule's buffers), as a streaming lane runs
//                                          its windows. Reports
//                                          ms_per_window, ns_per_move (per latent arrival
//                                          per sweep, perfbench's infer.stem_ns_per_move)
//                                          and allocs_per_window, which CI gates: a warm
//                                          window allocates only its StemResult.

#include <benchmark/benchmark.h>

// Counting allocator (defines global operator new/delete; one TU per binary).
#include "../tests/support/counting_allocator.h"

#include "qnet/infer/meanfield.h"
#include "qnet/infer/stem.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/task_record.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/rng.h"
#include "qnet/support/stopwatch.h"

namespace {

using qnet_testing::AllocationCount;

constexpr std::size_t kWindowTasks = 500;

struct Fixture {
  qnet::EventLog truth;
  qnet::Observation obs;
};

// One 500-task window of the tandem fixture used across the streaming tests.
Fixture MakeWindowFixture() {
  const qnet::QueueingNetwork net = qnet::MakeTandemNetwork(4.0, {8.0, 9.0});
  qnet::Rng rng(12345);
  qnet::EventLog truth =
      qnet::SimulateWorkload(net, qnet::PoissonArrivals(4.0, kWindowTasks), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = 0.25;
  qnet::Observation obs = scheme.Apply(truth, rng);
  return Fixture{std::move(truth), std::move(obs)};
}

// The sampler-free fit: one pass, zero allocations once the scratch is warm.
void BM_MeanFieldFit(benchmark::State& state) {
  const Fixture fixture = MakeWindowFixture();
  qnet::MeanFieldEstimator estimator;
  qnet::MeanFieldFit fit;
  estimator.Fit(fixture.truth, fixture.obs, 0.0, fit);  // warm-up sizes the vectors

  std::size_t fits = 0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    estimator.Fit(fixture.truth, fixture.obs, 0.0, fit);
    benchmark::DoNotOptimize(fit.rates.data());
    ++fits;
  }
  const std::size_t allocations = AllocationCount() - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindowTasks));
  state.counters["allocs_per_fit"] =
      static_cast<double>(allocations) / static_cast<double>(fits);
  state.counters["observed_responses"] = static_cast<double>(fit.observed_responses);
}
BENCHMARK(BM_MeanFieldFit)->Unit(benchmark::kMicrosecond);

std::vector<qnet::TaskRecord> WindowRecords(const Fixture& fixture) {
  std::vector<qnet::TaskRecord> records;
  for (int k = 0; k < fixture.truth.NumTasks(); ++k) {
    records.push_back(qnet::MakeTaskRecord(fixture.truth, fixture.obs, k));
  }
  return records;
}

// A sampler-free lane window: fold the records, then the closure. Zero allocations once
// the statistics and the fit are warm.
void BM_MeanFieldFoldRecords(benchmark::State& state) {
  const Fixture fixture = MakeWindowFixture();
  const std::vector<qnet::TaskRecord> records = WindowRecords(fixture);
  qnet::MeanFieldRecordFold fold(fixture.truth.NumQueues());
  qnet::MeanFieldEstimator estimator;
  qnet::MeanFieldFit fit;
  const auto fold_and_fit = [&] {
    fold.Restart();
    for (const qnet::TaskRecord& record : records) {
      fold.Add(record);
    }
    estimator.Fit(fold.Stats(), 0.0, fit);
  };
  fold_and_fit();  // warm-up sizes the statistics and the fit

  std::size_t fits = 0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    fold_and_fit();
    benchmark::DoNotOptimize(fit.rates.data());
    ++fits;
  }
  const std::size_t allocations = AllocationCount() - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindowTasks));
  state.counters["allocs_per_fit"] =
      static_cast<double>(allocations) / static_cast<double>(fits);
  state.counters["observed_responses"] = static_cast<double>(fit.observed_responses);
}
BENCHMARK(BM_MeanFieldFoldRecords)->Unit(benchmark::kMicrosecond);

// The same records through the in-place window build and the log fit: the fold's
// denominator in the CI gate.
void BM_WindowBuildAndMeanFieldFit(benchmark::State& state) {
  const Fixture fixture = MakeWindowFixture();
  const std::vector<qnet::TaskRecord> records = WindowRecords(fixture);
  qnet::WindowLogBuilder builder(fixture.truth.NumQueues());
  qnet::MeanFieldEstimator estimator;
  qnet::MeanFieldFit fit;
  for (auto _ : state) {
    builder.Restart();
    for (const qnet::TaskRecord& record : records) {
      builder.Add(record);
    }
    builder.Build();
    estimator.Fit(builder.Log(), builder.Obs(), 0.0, fit);
    benchmark::DoNotOptimize(fit.rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindowTasks));
}
BENCHMARK(BM_WindowBuildAndMeanFieldFit)->Unit(benchmark::kMicrosecond);

// The sampler it replaces on the same window: bench-sized StEM (the BM_StreamEstimate
// per-window configuration). Denominator of the 50x CI gate.
void BM_WindowedStemFit(benchmark::State& state) {
  const Fixture fixture = MakeWindowFixture();
  qnet::StemOptions options;
  options.iterations = 12;
  options.burn_in = 4;
  options.wait_sweeps = 0;
  const qnet::StemEstimator estimator(options);
  const std::vector<double> init(
      static_cast<std::size_t>(fixture.truth.NumQueues()), 1.0);
  for (auto _ : state) {
    qnet::Rng rng(17);
    const qnet::StemResult result =
        estimator.Run(fixture.truth, fixture.obs, init, rng);
    benchmark::DoNotOptimize(result.rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindowTasks));
}
BENCHMARK(BM_WindowedStemFit)->Unit(benchmark::kMillisecond);

// End-to-end A/B: the warm-start + early-stop fast path against the cold-started
// full-length baseline on the identical 2000-task replay. Arg 0 = off, Arg 1 = warm.
void BM_WarmStartedStemWindow(benchmark::State& state) {
  const qnet::QueueingNetwork net = qnet::MakeTandemNetwork(4.0, {8.0, 9.0});
  qnet::Rng rng(777);
  const qnet::EventLog truth =
      qnet::SimulateWorkload(net, qnet::PoissonArrivals(4.0, 2000), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = 0.25;
  const qnet::Observation obs = scheme.Apply(truth, rng);

  qnet::StreamingEstimatorOptions options;
  options.window.window_duration = 12.5;  // ~50 tasks per window at rate 4
  options.window.min_tasks_per_window = 8;
  options.stem.iterations = 20;
  options.stem.burn_in = 4;
  options.stem.wait_sweeps = 0;
  if (state.range(0) != 0) {
    options.fast_path = qnet::FastPathMode::kWarmStart;
    options.stem.convergence_tol = 0.05;
    options.stem.convergence_patience = 2;
  }
  const std::vector<double> init(static_cast<std::size_t>(truth.NumQueues()), 1.0);

  std::size_t windows = 0;
  std::size_t fit_iterations = 0;
  for (auto _ : state) {
    qnet::LogReplayStream stream(truth, obs);
    qnet::StreamingEstimator estimator(init, 17, options);
    const auto estimates = estimator.Run(stream);
    benchmark::DoNotOptimize(estimates.size());
    windows = estimates.size();
    fit_iterations = estimator.Stats().fit_iterations_total;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
  state.counters["warm"] = static_cast<double>(state.range(0));
  state.counters["windows"] = static_cast<double>(windows);
  state.counters["fit_iterations_total"] = static_cast<double>(fit_iterations);
}
BENCHMARK(BM_WarmStartedStemWindow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// One warm StEM window of the monitor's shape through a reused workspace.
void BM_StemWindow(benchmark::State& state) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 10.0;
  config.service_rate = 16.0;
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::Rng rng(2024);
  const qnet::EventLog truth =
      qnet::SimulateWorkload(net, qnet::PoissonArrivals(10.0, 360), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = 0.2;
  const qnet::Observation obs = scheme.Apply(truth, rng);

  qnet::StemOptions options;
  options.iterations = 60;
  options.burn_in = 20;
  options.wait_sweeps = 20;
  const qnet::StemEstimator estimator(options);
  const std::vector<double> init = net.ExponentialRates();
  qnet::StemWorkspace workspace;
  const auto run_window = [&] {
    qnet::Rng window_rng(17);
    return estimator.Run(truth, obs, init, window_rng, workspace);
  };
  const qnet::StemResult warm = run_window();  // warm-up sizes the workspace
  const double moves_per_window = static_cast<double>(
      warm.latent_arrivals * (warm.iterations_run + options.wait_sweeps));

  std::size_t windows = 0;
  double seconds = 0.0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    const qnet::Stopwatch watch;
    const qnet::StemResult result = run_window();
    seconds += watch.ElapsedSeconds();
    benchmark::DoNotOptimize(result.rates.data());
    ++windows;
  }
  const std::size_t allocations = AllocationCount() - before;
  const double count = static_cast<double>(windows);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 360);
  state.counters["ms_per_window"] = 1e3 * seconds / count;
  state.counters["ns_per_move"] = 1e9 * seconds / (count * moves_per_window);
  state.counters["allocs_per_window"] = static_cast<double>(allocations) / count;
}
BENCHMARK(BM_StemWindow)->Unit(benchmark::kMillisecond);

}  // namespace
