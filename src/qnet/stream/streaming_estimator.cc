#include "qnet/stream/streaming_estimator.h"

#include <algorithm>
#include <utility>

#include "qnet/infer/thread_pool.h"
#include "qnet/support/check.h"
#include "qnet/support/stopwatch.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

WindowFitChain::Plan WindowFitChain::PlanFit(std::size_t window_index, bool merged_tail,
                                             double t0) {
  Plan plan;
  const std::uint64_t window_seed = MixSeed(seed_, window_index);
  plan.seed = salted_ ? MixSeed(window_seed, lane_) : window_seed;
  if (merged_tail) {
    // The re-fit replaces the previous window's estimate, so it must start from the same
    // rates that window's first fit did.
    plan.warm_start = prev_input_rates_;
  } else {
    plan.warm_start = rates_;
    prev_input_rates_ = rates_;
  }
  plan.arrival_time_origin = window_local_ ? t0 : 0.0;
  return plan;
}

StreamingEstimator::StreamingEstimator(std::vector<double> init_rates, std::uint64_t seed,
                                       const StreamingEstimatorOptions& options)
    : init_rates_(std::move(init_rates)), seed_(seed), options_(options) {}

std::vector<WindowEstimate> StreamingEstimator::Run(TraceStream& stream) {
  stats_ = StreamingStats{};
  Stopwatch total;
  WindowAssembler assembler(stream.NumQueues(), options_.window);

  std::vector<WindowEstimate> estimates;
  WindowFitChain chain(init_rates_, seed_, options_.window_local_arrival_rate);

  bool inflight_active = false;
  WindowEstimate inflight_meta;
  StemResult inflight_result;
  MeanFieldEstimator mean_field(options_.mean_field);
  MeanFieldFit mf_fit;

  // One scheduler for the whole run, rebuilt per window (warm starts serialize the fits,
  // so the in-flight window owns it exclusively): rescheduling reuses the coloring/bucket
  // buffers and — under sharded sweeps — the worker pool, instead of constructing a
  // scheduler per window. Only wired up when a fit would build one anyway; a plain
  // sequential (non-batched, non-sharded) configuration keeps its historical stream
  // layout untouched.
  const bool cache_scheduler = options_.stem.gibbs.batched || options_.stem.sharded_sweeps;
  ShardedSweepOptions cache_options;
  if (options_.stem.sharded_sweeps) {
    cache_options = options_.stem.sharded;
  } else {
    cache_options.shards = 1;
    cache_options.threads = 1;
  }
  ShardedSweepScheduler scheduler_cache(cache_options);
  // Declared after everything an in-flight fit writes, so when an error unwinds Run the
  // slot's destructor joins that fit before its result and scheduler are destroyed.
  PipelineSlot slot;

  // Folds a finished estimate into the sequence, advances the warm-start chain, and
  // fires the forecasting hook — shared by the StEM completion path and the degraded
  // (mean-field-only) path, which never enters the pipeline.
  const auto emit = [&](WindowEstimate&& estimate) {
    ScopedSpan span(SpanStage::kEmit);
    const StreamCounters& counters = StreamCounters::Get();
    chain.Complete(estimate.rates);
    stats_.fit_iterations_total += estimate.fit_iterations;
    counters.fit_iterations->Add(static_cast<std::uint64_t>(estimate.fit_iterations));
    if (estimate.degraded) {
      ++stats_.degraded_windows;
      counters.degraded_windows->Increment();
    }
    if (estimate.merged_tail_tasks > 0) {
      // The merged-tail re-fit replaces the last estimate — same window, not a new one.
      QNET_CHECK(!estimates.empty(), "merged-tail window with no previous estimate");
      estimates.back() = std::move(estimate);
    } else {
      estimates.push_back(std::move(estimate));
      ++stats_.windows_estimated;
      counters.windows_estimated->Increment();
    }
    if (options_.on_window) {
      options_.on_window(estimates.back());
    }
  };

  // Joins the in-flight window's StEM run (no-op without pipelining — the result is
  // already there) and folds its result in.
  const auto complete_inflight = [&] {
    if (!inflight_active) {
      return;
    }
    slot.Wait();
    inflight_active = false;
    WindowEstimate estimate = std::move(inflight_meta);
    estimate.rates = inflight_result.rates;
    estimate.mean_wait = inflight_result.mean_wait;
    estimate.fit_iterations = inflight_result.iterations_run;
    emit(std::move(estimate));
  };

  const auto process = [&](ClosedWindow&& window) {
    // Warm starts serialize StEM runs: the previous window must finish first. The time
    // spent blocked here is the sweep lag — how far estimation trails ingestion.
    {
      ScopedSpan span(SpanStage::kQueueWait);
      Stopwatch waited;
      complete_inflight();
      stats_.max_sweep_lag_seconds =
          std::max(stats_.max_sweep_lag_seconds, waited.ElapsedSeconds());
    }

    WindowFitChain::Plan plan =
        chain.PlanFit(window.window_index, window.merged_tail_tasks > 0, window.t0);
    const bool fast = options_.fast_path != FastPathMode::kOff;
    const bool mean_field_only =
        options_.fast_path == FastPathMode::kMeanFieldOnly ||
        (options_.fast_path == FastPathMode::kDegrade &&
         window.num_tasks > options_.degrade_task_budget);
    if (fast) {
      // The mean-field fit is O(events) and deterministic — cheap enough to run on the
      // ingest thread, and required before the log moves into the pipeline closure.
      // Queues without events this window keep the chain's previous rates.
      mean_field.Fit(window.log, window.obs, plan.arrival_time_origin, mf_fit);
      for (std::size_t q = 0; q < plan.warm_start.size(); ++q) {
        if (mf_fit.fitted[q] != 0) {
          plan.warm_start[q] = mf_fit.rates[q];
        }
      }
    }
    WindowEstimate meta;
    meta.t0 = window.t0;
    meta.t1 = window.t1;
    meta.tasks = window.num_tasks;
    meta.merged_tail_tasks = window.merged_tail_tasks;
    meta.window_local_arrival_rate = options_.window_local_arrival_rate;
    meta.degraded = mean_field_only;
    if (mean_field_only) {
      // Sampler-free estimate: the mean-field rates (with chain fallback already
      // substituted into the plan's warm start) are the estimate itself.
      meta.rates = std::move(plan.warm_start);
      meta.mean_wait = mf_fit.mean_wait;
      emit(std::move(meta));
      return;
    }
    inflight_meta = std::move(meta);
    inflight_active = true;
    auto work = [stem = options_.stem, &result = inflight_result, log = std::move(window.log),
                 obs = std::move(window.obs), plan = std::move(plan),
                 scheduler = cache_scheduler ? &scheduler_cache : nullptr]() mutable {
      StemOptions window_stem = stem;
      window_stem.arrival_time_origin = plan.arrival_time_origin;
      window_stem.scheduler_cache = scheduler;
      const StemEstimator estimator(window_stem);
      Rng rng(plan.seed);
      result = estimator.Run(log, obs, std::move(plan.warm_start), rng);
    };
    if (options_.pipeline) {
      slot.Submit(std::move(work));
    } else {
      work();
    }
  };

  TaskRecord record;
  while (stream.Next(record)) {
    assembler.Push(record);
    while (assembler.HasClosed()) {
      process(assembler.PopClosed());
    }
  }
  assembler.FinishStream();
  while (assembler.HasClosed()) {
    process(assembler.PopClosed());
  }
  complete_inflight();

  const WindowAssemblerStats astats = assembler.Stats();
  stats_.tasks_ingested = astats.tasks_ingested;
  stats_.late_dropped = astats.late_dropped;
  stats_.tail_dropped = astats.tail_dropped;
  stats_.peak_buffered_tasks = astats.peak_buffered_tasks;
  stats_.total_wall_seconds = total.ElapsedSeconds();
  stats_.tasks_per_second = stats_.total_wall_seconds > 0.0
                                ? static_cast<double>(stats_.tasks_ingested) /
                                      stats_.total_wall_seconds
                                : 0.0;
  return estimates;
}

}  // namespace qnet
