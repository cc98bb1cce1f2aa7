#include "qnet/scenario/scenario_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "qnet/dist/exponential.h"
#include "qnet/infer/mg1.h"
#include "qnet/infer/mm1.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/model/event.h"
#include "qnet/model/traffic.h"
#include "qnet/sim/sim_scratch.h"
#include "qnet/sim/simulator.h"
#include "qnet/sim/workload.h"
#include "qnet/support/check.h"
#include "qnet/support/math.h"
#include "qnet/support/rng.h"
#include "qnet/support/stopwatch.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

// Everything one worker needs to evaluate cells without allocating: the DES arena, the
// cell overlay, and flat draw-metric matrices for the across-draw reduction. Owned by the
// engine (one per worker thread) and persistent across Evaluate calls.
struct ScenarioCellWorkspace {
  SimScratch scratch;
  CellOverlay overlay;
  ScenarioCell cell;
  // Per-draw metrics: scalars indexed [draw], per-queue matrices [draw * num_queues + q].
  std::vector<double> draw_mean;
  std::vector<double> draw_tail;
  std::vector<double> draw_util;
  std::vector<double> draw_qlen;
  std::vector<double> column;     // across-draw reduction buffer
  std::vector<double> responses;  // post-warmup per-task latencies of one draw
  std::vector<double> queue_visits;  // analytic-path workspace
};

namespace {

// Analytic-path inputs that are identical for every cell: no axis edits the FSM's
// transition structure, so the expected state visits solve once per Evaluate, and the
// posterior mean rates are a pure function of the posterior.
struct AnalyticContext {
  std::vector<double> state_visits;
  std::vector<double> mean_rates;
};

// Samples one route per staged entry time, drawing queues from the overlay's effective
// emission rows and successors from the base FSM's transition rows — the exact
// Categorical sequence Fsm::SampleRoute consumes on the realized clone.
void SampleOverlayRoutes(const Fsm& fsm, const CellOverlay& overlay, SimScratch& scratch,
                         Rng& rng) {
  constexpr std::size_t kMaxSteps = 1u << 20;
  scratch.route_steps.clear();
  scratch.route_offsets.clear();
  scratch.route_offsets.push_back(0);
  const int initial = fsm.InitialState();
  QNET_CHECK(initial >= 0, "initial state not set");
  const int final_column = fsm.NumStates();
  const std::size_t num_tasks = scratch.entry_times.size();
  for (std::size_t k = 0; k < num_tasks; ++k) {
    int state = initial;
    for (std::size_t steps = 0;; ++steps) {
      QNET_CHECK(steps < kMaxSteps, "FSM route exceeded ", kMaxSteps,
                 " steps; final state unreachable?");
      const int queue = static_cast<int>(rng.Categorical(overlay.EmissionRow(fsm, state)));
      scratch.route_steps.push_back(RouteStep{state, queue});
      const int next = static_cast<int>(rng.Categorical(fsm.TransitionRow(state)));
      if (next == final_column) {
        break;
      }
      state = next;
    }
    scratch.route_offsets.push_back(scratch.route_steps.size());
  }
}

// Reduces one completed scratch run into workspace draw slot d. Float-order-identical to
// the historical EventLog-based MeasureSimulation: responses accumulate in task order
// (mean before sort), busy/wait sums come from the arena's order-preserving reducers.
void MeasureScratch(ScenarioCellWorkspace& ws, std::size_t d, std::size_t num_queues,
                    const ScenarioEngineOptions& options) {
  const int num_tasks = ws.scratch.NumTasks();
  const int warm = static_cast<int>(static_cast<double>(num_tasks) * options.warmup_fraction);
  QNET_CHECK(warm < num_tasks, "warmup fraction leaves no measured tasks");
  ws.responses.clear();
  double horizon = 0.0;
  for (int k = 0; k < num_tasks; ++k) {
    const double exit = ws.scratch.ExitTime(k);
    horizon = std::max(horizon, exit);
    if (k >= warm) {
      ws.responses.push_back(exit - ws.scratch.entry_times[static_cast<std::size_t>(k)]);
    }
  }
  ws.draw_mean[d] = Mean(ws.responses);
  std::sort(ws.responses.begin(), ws.responses.end());
  ws.draw_tail[d] = QuantileSorted(ws.responses, options.tail_quantile);

  QNET_CHECK(horizon > 0.0, "degenerate simulation horizon");
  for (std::size_t q = 1; q < num_queues; ++q) {
    ws.draw_util[d * num_queues + q] = ws.scratch.queue_busy_sum[q] / horizon;
    // Time-average number waiting: the integral of N_q(t) dt equals the sum of
    // individual waiting durations (Little's law area argument).
    ws.draw_qlen[d * num_queues + q] = ws.scratch.queue_wait_sum[q] / horizon;
  }
}

MetricBand ReduceBandInPlace(std::vector<double>& values, const ScenarioEngineOptions& options) {
  MetricBand band;
  band.mean = Mean(values);
  std::sort(values.begin(), values.end());
  band.lo = QuantileSorted(values, options.band_lo);
  band.hi = QuantileSorted(values, options.band_hi);
  return band;
}

void EvaluateCellInto(const QueueingNetwork& base, const ParameterPosterior& posterior,
                      const ScenarioGrid& grid, std::size_t cell_index,
                      std::uint64_t seed, std::size_t draws,
                      const ScenarioEngineOptions& options,
                      const AnalyticContext* analytic_ctx, ScenarioCellWorkspace& ws,
                      CellResult& result) {
  ScopedSpan span(SpanStage::kScenarioCell);
  ScenarioCounters::Get().cells->Increment();
  ScenarioCounters::Get().draws->Add(draws);
  grid.Cell(cell_index, ws.cell);
  const Fsm& fsm = base.GetFsm();
  const auto num_queues = static_cast<std::size_t>(base.NumQueues());

  result.cell = cell_index;
  result.axis_values = ws.cell.values;

  ws.draw_mean.resize(draws);
  ws.draw_tail.resize(draws);
  ws.draw_util.assign(draws * num_queues, 0.0);
  ws.draw_qlen.assign(draws * num_queues, 0.0);

  for (std::size_t d = 0; d < draws; ++d) {
    // Deterministic thinning spreads the used draws across the stored chain.
    const std::size_t source = d * posterior.NumDraws() / draws;
    grid.RealizeOverlay(base, ws.cell, posterior.Draw(source), ws.overlay);
    // The (cell, draw) stream is a pure function of lattice position — never of
    // scheduling. CRN drops the cell salt so load sweeps share arrival/service draws.
    const std::uint64_t salt_base =
        options.common_random_numbers ? seed : MixSeed(seed, cell_index);
    Rng rng(MixSeed(salt_base, d));
    // Draw order matches the clone path exactly: all arrivals, then all routes
    // task-by-task, then services in heap-pop order.
    PoissonArrivals(ws.overlay.ArrivalRate(), options.tasks_per_draw)
        .GenerateInto(ws.scratch.entry_times, rng);
    SampleOverlayRoutes(fsm, ws.overlay, ws.scratch, rng);
    RunStagedDesExponential(ws.overlay.PooledRates(), ws.scratch, rng);
    MeasureScratch(ws, d, num_queues, options);
  }

  ws.column.resize(draws);
  const auto reduce = [&](const auto& get) {
    for (std::size_t d = 0; d < draws; ++d) {
      ws.column[d] = get(d);
    }
    return ReduceBandInPlace(ws.column, options);
  };
  result.mean_response = reduce([&](std::size_t d) { return ws.draw_mean[d]; });
  result.tail_response = reduce([&](std::size_t d) { return ws.draw_tail[d]; });
  result.utilization.assign(num_queues, MetricBand{});
  result.queue_length.assign(num_queues, MetricBand{});
  for (std::size_t q = 1; q < num_queues; ++q) {
    result.utilization[q] = reduce([&](std::size_t d) { return ws.draw_util[d * num_queues + q]; });
    result.queue_length[q] = reduce([&](std::size_t d) { return ws.draw_qlen[d * num_queues + q]; });
  }

  result.bottleneck_ranking.resize(num_queues - 1);
  std::iota(result.bottleneck_ranking.begin(), result.bottleneck_ranking.end(), 1);
  std::sort(result.bottleneck_ranking.begin(), result.bottleneck_ranking.end(),
            [&](int a, int b) {
              const double ua = result.utilization[static_cast<std::size_t>(a)].mean;
              const double ub = result.utilization[static_cast<std::size_t>(b)].mean;
              return ua != ub ? ua > ub : a < b;
            });
  result.bottleneck_queue = result.bottleneck_ranking.front();

  if (analytic_ctx != nullptr) {
    // Overlay equivalent of Realize + AnalyzeCellAnalytic at the posterior-mean rates:
    // queue visits from the overlay's emission rows against the hoisted state visits,
    // then per-queue M/M/1 / Erlang-C — the M/G/1 branch can never fire on a realized
    // cell (services are Exponential by construction).
    grid.RealizeOverlay(base, ws.cell, analytic_ctx->mean_rates, ws.overlay);
    ws.queue_visits.assign(num_queues, 0.0);
    ws.queue_visits[0] = 1.0;  // every task visits the virtual arrival queue once
    const auto num_states = static_cast<std::size_t>(fsm.NumStates());
    for (std::size_t s = 0; s < num_states; ++s) {
      const std::span<const double> emission =
          ws.overlay.EmissionRow(fsm, static_cast<int>(s));
      for (std::size_t q = 1; q < num_queues; ++q) {
        ws.queue_visits[q] += analytic_ctx->state_visits[s] * emission[q];
      }
    }
    const double lambda = ws.overlay.ArrivalRate();
    bool stable = true;
    double total = 0.0;
    for (std::size_t q = 1; q < num_queues; ++q) {
      const double lambda_q = lambda * ws.queue_visits[q];
      const int c = ws.overlay.Servers()[q];
      QNET_CHECK(c >= 1, "queue ", q, " has server count ", c);
      double mean_response = 0.0;
      bool queue_stable = false;
      if (c > 1) {
        const MmcMetrics m = AnalyzeMmc(lambda_q, ws.overlay.Rates()[q], c);
        queue_stable = m.stable;
        mean_response = m.mean_response;
      } else {
        // The realized single-server service is Exponential(1 * rate) == rate bitwise.
        const Mm1Metrics m = AnalyzeMm1(lambda_q, ws.overlay.Rates()[q]);
        queue_stable = m.stable;
        mean_response = m.mean_response;
      }
      if (!queue_stable) {
        stable = false;
        continue;
      }
      total += ws.queue_visits[q] * mean_response;
    }
    result.analytic_valid = true;
    result.analytic_stable = stable;
    result.analytic_mean_response =
        stable ? total : std::numeric_limits<double>::quiet_NaN();
  } else {
    result.analytic_valid = false;
    result.analytic_stable = false;
    result.analytic_mean_response = std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace

AnalyticPrediction AnalyzeCellAnalytic(const QueueingNetwork& net,
                                       std::span<const int> servers,
                                       std::span<const double> per_server_rates) {
  const auto num_queues = static_cast<std::size_t>(net.NumQueues());
  QNET_CHECK(servers.empty() || servers.size() == num_queues,
             "servers span size mismatch");
  QNET_CHECK(per_server_rates.empty() || per_server_rates.size() == num_queues,
             "per-server rates span size mismatch");

  const TrafficAnalysis traffic = AnalyzeTraffic(net);
  AnalyticPrediction prediction;
  prediction.stable = true;
  prediction.utilization.assign(num_queues, 0.0);
  double total = 0.0;
  for (std::size_t q = 1; q < num_queues; ++q) {
    const double lambda_q = traffic.arrival_rates[q];
    const int c = servers.empty() ? 1 : servers[q];
    QNET_CHECK(c >= 1, "queue ", q, " has server count ", c);
    double mean_response = 0.0;
    bool stable = false;
    if (c > 1) {
      QNET_CHECK(!per_server_rates.empty(),
                 "multi-server analytic path needs per-server rates");
      const MmcMetrics m = AnalyzeMmc(lambda_q, per_server_rates[q], c);
      stable = m.stable;
      mean_response = m.mean_response;
      prediction.utilization[q] = m.utilization;
    } else if (const auto* exp_dist =
                   dynamic_cast<const Exponential*>(&net.Service(static_cast<int>(q)))) {
      const Mm1Metrics m = AnalyzeMm1(lambda_q, exp_dist->rate());
      stable = m.stable;
      mean_response = m.mean_response;
      prediction.utilization[q] = m.utilization;
    } else {
      const Mg1Metrics m = AnalyzeMg1(lambda_q, net.Service(static_cast<int>(q)));
      stable = m.stable;
      mean_response = m.mean_response;
      prediction.utilization[q] = m.utilization;
    }
    if (!stable) {
      prediction.stable = false;
      continue;
    }
    total += traffic.queue_visits[q] * mean_response;
  }
  if (prediction.stable) {
    prediction.mean_response = total;
  }
  return prediction;
}

ScenarioEngine::ScenarioEngine(ScenarioEngineOptions options) : options_(options) {
  QNET_CHECK(options_.max_draws >= 1, "max_draws must be positive");
  QNET_CHECK(options_.tasks_per_draw >= 2, "tasks_per_draw must be at least 2");
  QNET_CHECK(options_.warmup_fraction >= 0.0 && options_.warmup_fraction < 1.0,
             "warmup_fraction must be in [0, 1)");
  QNET_CHECK(options_.band_lo >= 0.0 && options_.band_hi <= 1.0 &&
                 options_.band_lo <= options_.band_hi,
             "band quantiles must satisfy 0 <= lo <= hi <= 1");
  QNET_CHECK(options_.tail_quantile > 0.0 && options_.tail_quantile < 1.0,
             "tail_quantile must be in (0, 1)");
}

// Out-of-line so the pool destroys against the complete workspace type defined above.
ScenarioEngine::~ScenarioEngine() = default;

ScenarioReport ScenarioEngine::Evaluate(const QueueingNetwork& base,
                                        const ParameterPosterior& posterior,
                                        const ScenarioGrid& grid, std::uint64_t seed) {
  QNET_CHECK(posterior.NumQueues() == base.NumQueues(),
             "posterior has ", posterior.NumQueues(), " rates but the network has ",
             base.NumQueues(), " queues");
  Stopwatch watch;

  ScenarioReport report;
  report.num_queues = base.NumQueues();
  report.draws = std::min(options_.max_draws, posterior.NumDraws());
  report.tasks_per_draw = options_.tasks_per_draw;
  report.seed = seed;
  report.axis_names = grid.AxisNames();
  report.cells.resize(grid.NumCells());

  // Cell-invariant analytic inputs, hoisted: the state-visit solve only sees FSM
  // transitions (routing axes edit emissions, never transitions), so one solve — the
  // exact AnalyzeTraffic construction — serves every cell bit-identically.
  AnalyticContext analytic_ctx;
  if (options_.analytic) {
    const Fsm& fsm = base.GetFsm();
    fsm.Validate();
    const auto num_states = static_cast<std::size_t>(fsm.NumStates());
    std::vector<std::vector<double>> system(num_states,
                                            std::vector<double>(num_states, 0.0));
    std::vector<double> rhs(num_states, 0.0);
    rhs[static_cast<std::size_t>(fsm.InitialState())] = 1.0;
    for (std::size_t i = 0; i < num_states; ++i) {
      for (std::size_t j = 0; j < num_states; ++j) {
        const double p_ji = fsm.Transition(static_cast<int>(j), static_cast<int>(i));
        system[i][j] = (i == j ? 1.0 : 0.0) - p_ji;
      }
    }
    analytic_ctx.state_visits = SolveLinearSystem(std::move(system), std::move(rhs));
    analytic_ctx.mean_rates = posterior.MeanRates();
  }

  // Each cell is a job on the engine's pool, with its worker's workspace, and writes only
  // its own report slot, so the report is bit-identical for any thread count.
  if (pool_ == nullptr) {
    pool_ = std::make_unique<OrderedPool<ScenarioCellWorkspace>>(options_.threads);
  }
  const auto evaluate = [&](std::size_t i, ScenarioCellWorkspace& ws) {
    EvaluateCellInto(base, posterior, grid, i, seed, report.draws, options_,
                     options_.analytic ? &analytic_ctx : nullptr, ws, report.cells[i]);
  };
  try {
    for (std::size_t i = 0; i < grid.NumCells(); ++i) {
      if (pool_->InFlight() >= 2 * pool_->Workers()) {
        pool_->WaitOldest();
      }
      pool_->Submit([&evaluate, i](ScenarioCellWorkspace& ws) { evaluate(i, ws); });
    }
    while (pool_->InFlight() > 0) {
      pool_->WaitOldest();
    }
  } catch (...) {
    pool_.reset();  // joins every worker; a pool stops at an error
    throw;
  }

  stats_.wall_seconds = watch.ElapsedSeconds();
  stats_.cells_per_second =
      stats_.wall_seconds > 0.0
          ? static_cast<double>(grid.NumCells()) / stats_.wall_seconds
          : 0.0;
  return report;
}

}  // namespace qnet
