// Scenario-engine benchmarks: grid throughput (cells/s) across thread counts and the
// per-cell allocation footprint (google-benchmark).
//
// Workflow (tracked in CI as BENCH_scenario.json):
//   ./build/perf_scenario --benchmark_format=json > BENCH_scenario.json
// Headline metrics:
//   BM_ScenarioCells/T items_per_second   — cells/s through the full posterior-predictive
//                                           evaluation (realize -> DES -> reduce) at T
//                                           worker threads;
//   BM_ScenarioCells/T cells_per_ms_per_thread — must stay > 1 at every thread count
//                                           (CI floor; the 1-core CI box cannot show
//                                           T-scaling, so the gate divides by T);
//   BM_ScenarioCloneCells items_per_second — the same cells through the clone path the
//                                           engine replaced (a network clone per cell
//                                           draw via ScenarioGrid::Realize, an
//                                           allocating SimulateWorkload, reductions over
//                                           the EventLog). CI runs it and
//                                           BM_ScenarioCells/1 as 11 interleaved
//                                           repetitions and gates the median
//                                           per-repetition ratio >= 1.65 (it reads
//                                           2.0-2.5; ~1.0 with the clones put back),
//                                           in-run instead of an absolute cells/ms
//                                           floor;
//   BM_ScenarioAllocations allocs_per_cell — operator-new calls per evaluated cell on
//                                           warm workspaces. CI-gated < 32 (from ~970
//                                           pre-overlay): the overlay/arena engine only
//                                           allocates the report's own result vectors.

#include <benchmark/benchmark.h>

// Counting allocator (defines global operator new/delete; one TU per binary).
#include "../tests/support/counting_allocator.h"

#include <algorithm>
#include <vector>

#include "qnet/model/builders.h"
#include "qnet/scenario/parameter_posterior.h"
#include "qnet/scenario/scenario_engine.h"
#include "qnet/scenario/scenario_spec.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/rng.h"

namespace {

using qnet_testing::AllocationCount;

// 64-cell what-if lattice over a 2-queue tandem: 8 load multipliers x 8 service scales,
// 2 posterior draws x 64 tasks per cell — a realistic interactive-planning workload.
qnet::ScenarioGrid MakeGrid() {
  qnet::ScenarioAxis load;
  load.kind = qnet::AxisKind::kArrivalScale;
  load.name = "load";
  load.values = {0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0};
  qnet::ScenarioAxis svc;
  svc.kind = qnet::AxisKind::kServiceScale;
  svc.name = "svc";
  svc.queue = 2;
  svc.values = {0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5};
  return qnet::ScenarioGrid({load, svc});
}

qnet::ScenarioEngineOptions EngineOptions(std::size_t threads) {
  qnet::ScenarioEngineOptions options;
  options.max_draws = 2;
  options.tasks_per_draw = 64;
  options.threads = threads;
  return options;
}

qnet::ParameterPosterior MakePosterior() {
  qnet::StemResult stem;
  stem.rate_trace = {3, {1.5, 6.0, 4.0, 1.45, 6.2, 4.1, 1.55, 5.9, 3.95}};
  return qnet::ParameterPosterior::FromStem(stem, 0);
}

void BM_ScenarioCells(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const qnet::QueueingNetwork base = qnet::MakeTandemNetwork(1.5, {6.0, 4.0});
  const qnet::ScenarioGrid grid = MakeGrid();
  const qnet::ParameterPosterior posterior = MakePosterior();
  qnet::ScenarioEngine engine(EngineOptions(threads));
  std::size_t cells = 0;
  for (auto _ : state) {
    const qnet::ScenarioReport report = engine.Evaluate(base, posterior, grid, 42);
    benchmark::DoNotOptimize(report.cells.data());
    cells += report.cells.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.counters["cells_per_ms_per_thread"] = benchmark::Counter(
      static_cast<double>(cells) / (1000.0 * static_cast<double>(threads)),
      benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ScenarioCells)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// The engine's per-draw work as the clone-era engine did it, for the same grid, draws and
// (cell, draw) seeds: clone the network with the cell's transforms (Realize), simulate
// into a fresh EventLog, and reduce responses, utilization and queue length from the log.
double CloneEvaluateCell(const qnet::QueueingNetwork& base,
                         const qnet::ParameterPosterior& posterior,
                         const qnet::ScenarioGrid& grid, std::size_t cell_index,
                         const qnet::ScenarioEngineOptions& options) {
  const qnet::ScenarioCell cell = grid.Cell(cell_index);
  const auto num_queues = static_cast<std::size_t>(base.NumQueues());
  double sink = 0.0;
  for (std::size_t d = 0; d < options.max_draws; ++d) {
    const std::size_t source = d * posterior.NumDraws() / options.max_draws;
    const qnet::CellRealization real = grid.Realize(base, cell, posterior.Draw(source));
    qnet::Rng rng(qnet::MixSeed(qnet::MixSeed(42, cell_index), d));
    const qnet::EventLog log = qnet::SimulateWorkload(
        real.net, qnet::PoissonArrivals(real.rates[0], options.tasks_per_draw), rng);
    std::vector<double> responses;
    double horizon = 0.0;
    for (int k = 0; k < log.NumTasks(); ++k) {
      horizon = std::max(horizon, log.TaskExitTime(k));
      responses.push_back(log.TaskExitTime(k) - log.TaskEntryTime(k));
    }
    std::sort(responses.begin(), responses.end());
    sink += responses[responses.size() / 2];
    const std::vector<double> busy = log.PerQueueServiceSum();
    for (std::size_t q = 1; q < num_queues; ++q) {
      double wait_sum = 0.0;
      for (const qnet::EventId e : log.QueueOrder(static_cast<int>(q))) {
        wait_sum += log.WaitTime(e);
      }
      sink += busy[q] / horizon + wait_sum / horizon;
    }
  }
  return sink;
}

void BM_ScenarioCloneCells(benchmark::State& state) {
  const qnet::QueueingNetwork base = qnet::MakeTandemNetwork(1.5, {6.0, 4.0});
  const qnet::ScenarioGrid grid = MakeGrid();
  const qnet::ParameterPosterior posterior = MakePosterior();
  const qnet::ScenarioEngineOptions options = EngineOptions(1);
  std::size_t cells = 0;
  for (auto _ : state) {
    double sink = 0.0;
    for (std::size_t cell = 0; cell < grid.NumCells(); ++cell) {
      sink += CloneEvaluateCell(base, posterior, grid, cell, options);
    }
    benchmark::DoNotOptimize(sink);
    cells += grid.NumCells();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_ScenarioCloneCells)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ScenarioAllocations(benchmark::State& state) {
  const qnet::QueueingNetwork base = qnet::MakeTandemNetwork(1.5, {6.0, 4.0});
  const qnet::ScenarioGrid grid = MakeGrid();
  const qnet::ParameterPosterior posterior = MakePosterior();
  qnet::ScenarioEngine engine(EngineOptions(1));
  // Warm-up pass outside the counted region.
  benchmark::DoNotOptimize(engine.Evaluate(base, posterior, grid, 42).cells.size());
  std::size_t cells = 0;
  const std::size_t before = AllocationCount();
  for (auto _ : state) {
    const qnet::ScenarioReport report = engine.Evaluate(base, posterior, grid, 42);
    benchmark::DoNotOptimize(report.cells.data());
    cells += report.cells.size();
  }
  const std::size_t after = AllocationCount();
  state.counters["allocs_per_cell"] =
      cells > 0 ? static_cast<double>(after - before) / static_cast<double>(cells) : 0.0;
}
BENCHMARK(BM_ScenarioAllocations)->Unit(benchmark::kMillisecond);

}  // namespace
