#include "traced.h"

#include <fstream>
#include <limits>
#include <utility>

#include "qnet/detect/change_monitor.h"
#include "qnet/infer/meanfield.h"
#include "qnet/infer/sharded_sweep.h"
#include "qnet/infer/stem.h"
#include "qnet/shard/lane_merger.h"
#include "qnet/shard/lane_router.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"
#include "system.h"

namespace perfbench {
namespace {

constexpr std::size_t kAllWindows = std::numeric_limits<std::size_t>::max();

// One lane's state: record buffer, trailing-merge window, log builder, fit chain and
// mean-field fit buffers (the plain path is the single lane 0).
struct Lane {
  Lane(int num_queues, qnet::WindowFitChain fit_chain)
      : builder(num_queues), chain(std::move(fit_chain)) {}

  std::vector<qnet::TaskRecord> buffer;
  std::vector<qnet::TaskRecord> last_window;
  qnet::WindowLogBuilder builder;
  qnet::WindowFitChain chain;
  qnet::MeanFieldEstimator mean_field;
  qnet::MeanFieldFit mf_fit;
};

// Mean-field warm start: queues with events this window take the fitted rate.
void SubstituteFitted(const qnet::MeanFieldFit& fit, std::vector<double>& rates) {
  for (std::size_t q = 0; q < rates.size(); ++q) {
    if (fit.fitted[q] != 0) {
      rates[q] = fit.rates[q];
    }
  }
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kPass: return "pass";
    case Stage::kReplay: return "gen.replay";
    case Stage::kSpanPush: return "stream.span";
    case Stage::kBuild: return "stream.build";
    case Stage::kMeanField: return "infer.meanfield";
    case Stage::kStem: return "infer.stem";
    case Stage::kRoute: return "shard.route";
    case Stage::kMerge: return "shard.merge";
    case Stage::kEmit: return "stream.emit";
    case Stage::kDetect: return "detect.observe";
    case Stage::kForecast: return "scenario.forecast";
    case Stage::kCount: break;
  }
  return "?";
}

void Tracer::Begin(Stage stage, bool chained) {
  QNET_CHECK(depth_ < stack_.size(), "span stack overflow");
  // A chained start must not reach back before the enclosing span began.
  const bool reuse = chained && depth_ > 0 && last_end_ns_ >= stack_[depth_ - 1].start_ns;
  stack_[depth_] = {stage, reuse ? last_end_ns_ : NowNs(), 0};
  ++depth_;
}

void Tracer::End() {
  const std::uint64_t now = NowNs();
  last_end_ns_ = now;
  QNET_CHECK(depth_ > 0, "span stack underflow");
  const Open open = stack_[--depth_];
  const std::uint64_t duration = now - open.start_ns;
  Stage parent = Stage::kPass;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += duration;
    parent = stack_[depth_ - 1].stage;
  }
  SpanRecord& span = pending_[static_cast<std::size_t>(open.stage)];
  if (span.calls == 0) {
    span.stage = open.stage;
    span.parent = parent;
    span.first_start_ns = open.start_ns;
  }
  ++span.calls;
  span.last_end_ns = now;
  span.total_ns += duration;
  span.self_ns += duration - open.child_ns;
}

void Tracer::CloseWindow(std::size_t window) {
  if (!enabled_) {
    return;
  }
  for (SpanRecord& span : pending_) {
    if (span.calls > 0) {
      span.window = window;
      log_.push_back(span);
      span = SpanRecord{};
    }
  }
}

std::uint64_t Tracer::SelfNs(Stage stage) const {
  std::uint64_t sum = 0;
  for (const SpanRecord& span : log_) {
    sum += span.stage == stage ? span.self_ns : 0;
  }
  return sum;
}

std::uint64_t Tracer::TotalNs(Stage stage) const {
  std::uint64_t sum = 0;
  for (const SpanRecord& span : log_) {
    sum += span.stage == stage ? span.total_ns : 0;
  }
  return sum;
}

double Tracer::Coverage() const {
  std::uint64_t layers = 0;
  for (std::size_t s = 1; s < kStages; ++s) {  // every stage but the root pass
    layers += SelfNs(static_cast<Stage>(s));
  }
  return static_cast<double>(layers) / static_cast<double>(TotalNs(Stage::kPass));
}

bool WriteSpans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  out << "stage,parent,window,calls,first_start_ns,last_end_ns,total_ns,self_ns\n";
  for (const SpanRecord& span : tracer.Log()) {
    out << StageName(span.stage) << ',' << StageName(span.parent) << ',';
    if (span.window == kAllWindows) {
      out << "all";
    } else {
      out << span.window;
    }
    out << ',' << span.calls << ',' << span.first_start_ns << ',' << span.last_end_ns << ','
        << span.total_ns << ',' << span.self_ns << '\n';
  }
  return static_cast<bool>(out);
}

RecomposedPass RecomposePass(const Workload& workload, const Trace& trace, std::uint64_t seed,
                             Tracer& tracer) {
  RecomposedPass out;
  const std::uint64_t start_ns = NowNs();
  if (tracer.Enabled()) {
    tracer.Begin(Stage::kPass);
  }

  const bool fleet = workload.system == SystemKind::kFleet;
  const qnet::ShardedStreamingOptions fleet_options = MakeFleetOptions(workload);
  const qnet::StreamingEstimatorOptions options =
      fleet ? fleet_options.stream : MakeStreamOptions(workload);
  QNET_CHECK(fleet ? options.fast_path == qnet::FastPathMode::kMeanFieldOnly
                   : options.fast_path == qnet::FastPathMode::kWarmStart,
             "the recomposition covers the benchmark's fast-path modes only");
  const std::size_t lanes = fleet ? fleet_options.lanes : 1;

  LapReplay replay(trace, workload.pass_laps, nullptr);
  const qnet::QueueingNetwork net = MakeNetwork(workload);
  const int num_queues = net.NumQueues();
  qnet::ChangeMonitor monitor(num_queues);
  const std::unique_ptr<qnet::WindowForecaster> forecaster =
      workload.forecaster ? MakeForecaster(net, ForecastSeed(seed)) : nullptr;

  const std::vector<double> init = InitRates(workload, num_queues);
  qnet::WindowSpanTracker tracker(options.window);
  qnet::LaneRouterOptions router_options;
  router_options.lanes = lanes;
  qnet::LaneRouter router(std::move(router_options));
  qnet::LaneMerger merger(lanes, num_queues, options.window_local_arrival_rate,
                          fleet_options.cross_lane_bias_correction);
  std::vector<Lane> lane_state;
  lane_state.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    lane_state.emplace_back(num_queues,
                            qnet::WindowFitChain(init, FitSeed(seed),
                                                 options.window_local_arrival_rate,
                                                 /*salted=*/lanes > 1, lane));
  }
  // StreamingEstimator's per-run scheduler cache (batched sweeps, one shard).
  qnet::ShardedSweepOptions cache_options;
  cache_options.shards = 1;
  cache_options.threads = 1;
  qnet::ShardedSweepScheduler scheduler_cache(cache_options);
  QNET_CHECK(options.stem.gibbs.batched && !options.stem.sharded_sweeps,
             "the recomposition mirrors the batched single-shard sweep cache");

  std::vector<qnet::WindowEstimate>& estimates = out.estimates;
  const auto emit = [&](qnet::WindowEstimate&& estimate, bool replaces_previous) {
    {
      ScopedStage span(tracer, Stage::kEmit);
      if (replaces_previous) {
        QNET_CHECK(!estimates.empty(), "merged-tail window with no previous estimate");
        estimates.back() = std::move(estimate);
      } else {
        estimates.push_back(std::move(estimate));
      }
    }
    {
      ScopedStage span(tracer, Stage::kDetect);
      monitor.Observe(estimates.back());
    }
    if (forecaster) {
      ScopedStage span(tracer, Stage::kForecast);
      forecaster->Forecast(estimates.back());
    }
    tracer.CloseWindow(estimates.size() - 1);
  };

  const auto close_plain = [&](const qnet::WindowSpanTracker::SpanDecision& decision) {
    Lane& lane = lane_state[0];
    std::pair<qnet::EventLog, qnet::Observation> window{qnet::EventLog(2), {}};
    std::size_t num_tasks = 0;
    {
      ScopedStage span(tracer, Stage::kBuild);
      std::vector<qnet::TaskRecord> records =
          qnet::TakeDecisionRecords(decision, lane.buffer, lane.last_window);
      for (const qnet::TaskRecord& record : records) {
        lane.builder.Add(record);
      }
      window = lane.builder.Finish();
      num_tasks = records.size();
      if (decision.merged_tail_tasks == 0 && options.window.merge_trailing_window) {
        lane.last_window = std::move(records);
      }
    }
    qnet::WindowFitChain::Plan plan;
    {
      ScopedStage span(tracer, Stage::kMeanField);
      plan = lane.chain.PlanFit(decision.window_index, decision.merged_tail_tasks > 0,
                                decision.t0);
      lane.mean_field.Fit(window.first, window.second, plan.arrival_time_origin, lane.mf_fit);
      SubstituteFitted(lane.mf_fit, plan.warm_start);
    }
    qnet::StemResult result;
    {
      ScopedStage span(tracer, Stage::kStem);
      qnet::StemOptions stem = options.stem;
      stem.arrival_time_origin = plan.arrival_time_origin;
      stem.scheduler_cache = &scheduler_cache;
      const qnet::StemEstimator estimator(stem);
      qnet::Rng rng(plan.seed);
      result = estimator.Run(window.first, window.second, std::move(plan.warm_start), rng);
    }
    out.stem_iterations += result.iterations_run;
    out.stem_moves += result.latent_arrivals *
                      (result.iterations_run * options.stem.sweeps_per_iteration +
                       options.stem.wait_sweeps);
    qnet::WindowEstimate estimate;
    estimate.t0 = decision.t0;
    estimate.t1 = decision.t1;
    estimate.tasks = num_tasks;
    estimate.merged_tail_tasks = decision.merged_tail_tasks;
    estimate.window_local_arrival_rate = options.window_local_arrival_rate;
    estimate.rates = result.rates;
    estimate.mean_wait = result.mean_wait;
    estimate.fit_iterations = result.iterations_run;
    {
      ScopedStage span(tracer, Stage::kEmit);
      lane.chain.Complete(estimate.rates);
    }
    emit(std::move(estimate), decision.merged_tail_tasks > 0);
  };

  // One lane's answer to a close token under kMeanFieldOnly (LaneWorker::ProcessClose).
  const auto close_lane = [&](std::size_t index,
                              const qnet::WindowSpanTracker::SpanDecision& decision) {
    Lane& lane = lane_state[index];
    qnet::LaneWindowFit fit;
    std::pair<qnet::EventLog, qnet::Observation> window{qnet::EventLog(2), {}};
    {
      ScopedStage span(tracer, Stage::kBuild);
      std::vector<qnet::TaskRecord> records =
          qnet::TakeDecisionRecords(decision, lane.buffer, lane.last_window);
      fit.tasks = records.size();
      if (!records.empty()) {
        for (const qnet::TaskRecord& record : records) {
          lane.builder.Add(record);
        }
        window = lane.builder.Finish();
        fit.queue_counts = window.first.PerQueueCount();
      }
      if (decision.merged_tail_tasks == 0 && options.window.merge_trailing_window) {
        lane.last_window = std::move(records);
      }
    }
    if (fit.tasks > 0) {
      ScopedStage span(tracer, Stage::kMeanField);
      qnet::WindowFitChain::Plan plan = lane.chain.PlanFit(
          decision.window_index, decision.merged_tail_tasks > 0, decision.t0);
      lane.mean_field.Fit(window.first, window.second, plan.arrival_time_origin, lane.mf_fit);
      SubstituteFitted(lane.mf_fit, plan.warm_start);
      lane.chain.Complete(plan.warm_start);
      fit.fitted = true;
      fit.degraded = true;
      fit.rates = std::move(plan.warm_start);
      fit.mean_wait = lane.mf_fit.mean_wait;
    }
    ScopedStage span(tracer, Stage::kMerge);
    merger.Post(index, std::move(fit));
  };

  const auto close_fleet = [&](const qnet::WindowSpanTracker::SpanDecision& decision) {
    {
      ScopedStage span(tracer, Stage::kMerge);
      merger.ExpectWindow(decision);
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      close_lane(lane, decision);
    }
    qnet::PooledWindow pooled;
    for (;;) {
      bool popped = false;
      {
        ScopedStage span(tracer, Stage::kMerge);
        popped = merger.Pop(pooled, /*block=*/false);
      }
      if (!popped) {
        break;
      }
      emit(std::move(pooled.estimate), pooled.replaces_previous);
    }
  };

  const auto drain_decisions = [&] {
    while (tracker.HasClosed()) {
      const qnet::WindowSpanTracker::SpanDecision decision = tracker.PopClosed();
      if (fleet) {
        close_fleet(decision);
      } else {
        close_plain(decision);
      }
    }
  };

  const auto track_peak = [&] {
    std::size_t buffered = 0;
    for (const Lane& lane : lane_state) {
      buffered += lane.buffer.size() + lane.last_window.size();
    }
    out.peak_buffered_tasks = std::max(out.peak_buffered_tasks, buffered);
  };

  qnet::TaskRecord record;
  for (;;) {
    bool more = false;
    {
      ScopedStage span(tracer, Stage::kReplay, /*chained=*/true);
      more = replay.Next(record);
    }
    if (!more) {
      break;
    }
    ++out.tasks;
    qnet::WindowSpanTracker::PushVerdict verdict;
    {
      ScopedStage span(tracer, Stage::kSpanPush, /*chained=*/true);
      verdict = tracker.Push(record.entry_time);
    }
    if (verdict != qnet::WindowSpanTracker::PushVerdict::kLateDropped) {
      std::size_t lane = 0;
      if (fleet) {
        ScopedStage span(tracer, Stage::kRoute, /*chained=*/true);
        lane = router.Route(record);
      }
      ScopedStage span(tracer, Stage::kSpanPush, /*chained=*/true);
      lane_state[lane].buffer.push_back(record);
      track_peak();
    }
    drain_decisions();
  }
  tracker.Finish();
  drain_decisions();

  out.alerts = monitor.Alerts().size();
  if (tracer.Enabled()) {
    tracer.End();
    tracer.CloseWindow(kAllWindows);
  }
  out.wall_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
  return out;
}

}  // namespace perfbench
