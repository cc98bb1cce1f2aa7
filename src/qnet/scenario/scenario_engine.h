// Posterior-predictive scenario-grid engine: evaluates every cell of a ScenarioGrid by
// pushing posterior parameter draws through the DES and reducing to per-cell SLA metrics
// with uncertainty bands — the layer that turns the sampler into a capacity-planning
// tool ("what happens to latency if traffic doubles and the DB tier gets two more
// servers?").
//
// Per cell, per draw: the grid realizes the (cell, draw) network, a fresh DES run
// (the staged SimScratch arena, sim/sim_scratch.h) generates
// tasks_per_draw tasks, and the run reduces to mean/tail end-to-end latency, per-queue
// utilization, and time-average queue lengths. Across draws the engine reports
// mean + [band_lo, band_hi] posterior-predictive bands, a bottleneck ranking by mean
// utilization, and — where the cell is an exponential-service network — the analytic
// steady-state prediction (per-queue M/M/1, Erlang-C M/M/c for multi-server cells,
// Pollaczek-Khinchine M/G/1 for general single-server services) as a cross-check.
//
// Determinism contract (matches the PR 1-3 discipline): the (cell, draw) run consumes an
// Rng seeded MixSeed(MixSeed(seed, cell_index), draw) — a pure function of the base seed
// and lattice position, never of scheduling. Cells are sharded across threads with each
// cell writing only its own report slot, so reports are bit-identical for any
// options.threads. With common_random_numbers the cell salt is dropped
// (MixSeed(seed, draw) for every cell): all cells under draw d see the same arrival
// uniforms and service streams, which makes pure load sweeps exactly monotone (classical
// CRN variance reduction for what-if comparisons) — still bit-identical across thread
// counts.

#ifndef QNET_SCENARIO_SCENARIO_ENGINE_H_
#define QNET_SCENARIO_SCENARIO_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qnet/model/network.h"
#include "qnet/scenario/parameter_posterior.h"
#include "qnet/scenario/scenario_spec.h"

namespace qnet {

// Per-worker reusable buffers (SimScratch arena, cell overlay, draw-metric matrices);
// defined in scenario_engine.cc.
struct ScenarioCellWorkspace;
template <typename State>
class OrderedPool;

// Posterior-predictive band over draws: mean plus [lo, hi] draw quantiles.
struct MetricBand {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;

  friend bool operator==(const MetricBand&, const MetricBand&) = default;
};

struct CellResult {
  std::size_t cell = 0;
  std::vector<double> axis_values;  // one per grid axis, cell's lattice point
  MetricBand mean_response;         // end-to-end latency mean (post-warmup tasks)
  MetricBand tail_response;         // end-to-end latency tail quantile per draw
  std::vector<MetricBand> utilization;   // per queue; index 0 held at zero
  std::vector<MetricBand> queue_length;  // time-average tasks waiting, per queue
  // Real queues ranked by descending mean utilization (ties by queue id).
  std::vector<int> bottleneck_ranking;
  int bottleneck_queue = -1;
  bool analytic_valid = false;   // analytic path ran for this cell
  bool analytic_stable = false;  // every queue stable at the posterior-mean rates
  // Sum over queues of visits * steady-state response at the posterior-mean rates
  // (NaN when invalid or unstable).
  double analytic_mean_response = std::numeric_limits<double>::quiet_NaN();

  // Hand-written because analytic_mean_response is NaN by design for saturated cells:
  // equality here means "same report", so two NaNs compare equal (unlike IEEE ==, which
  // would make bit-identical reports with any unstable cell compare unequal).
  friend bool operator==(const CellResult& a, const CellResult& b) {
    const bool analytic_equal =
        a.analytic_mean_response == b.analytic_mean_response ||
        (a.analytic_mean_response != a.analytic_mean_response &&
         b.analytic_mean_response != b.analytic_mean_response);
    return analytic_equal && a.cell == b.cell && a.axis_values == b.axis_values &&
           a.mean_response == b.mean_response && a.tail_response == b.tail_response &&
           a.utilization == b.utilization && a.queue_length == b.queue_length &&
           a.bottleneck_ranking == b.bottleneck_ranking &&
           a.bottleneck_queue == b.bottleneck_queue &&
           a.analytic_valid == b.analytic_valid && a.analytic_stable == b.analytic_stable;
  }
};

struct ScenarioReport {
  int num_queues = 0;
  std::size_t draws = 0;           // draws evaluated per cell (post-thinning)
  std::size_t tasks_per_draw = 0;
  std::uint64_t seed = 0;
  std::vector<std::string> axis_names;
  std::vector<CellResult> cells;   // cell-index order

  friend bool operator==(const ScenarioReport&, const ScenarioReport&) = default;
};

struct ScenarioEngineOptions {
  // Posterior draws pushed through each cell; when the posterior holds more, the engine
  // thins deterministically: with D = min(max_draws, NumDraws()) draws evaluated, draw j
  // uses source index j * NumDraws() / D.
  std::size_t max_draws = 8;
  std::size_t tasks_per_draw = 512;
  // Leading fraction of tasks excluded from the latency metrics (DES warmup transient).
  double warmup_fraction = 0.2;
  // Band quantiles over draws (e.g. 0.05/0.95 for a 90% posterior-predictive band).
  double band_lo = 0.05;
  double band_hi = 0.95;
  // Per-draw end-to-end latency tail quantile reported as tail_response.
  double tail_quantile = 0.95;
  // Workers evaluating cells: the calling thread and threads - 1 more; results are
  // bit-identical for every value.
  std::size_t threads = 1;
  // Attach the analytic steady-state cross-check to each cell.
  bool analytic = true;
  // Share RNG streams across cells (seed salt = draw only) — see header comment.
  bool common_random_numbers = false;
};

// Analytic steady-state prediction for one realized cell (free-standing so tests can
// drive the M/G/1 branch with hand-built general-service networks).
struct AnalyticPrediction {
  bool stable = false;
  // Sum over queues of expected visits * mean steady-state response (NaN if unstable).
  double mean_response = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> utilization;  // offered rho per queue; index 0 held at zero
};

// `net` supplies topology + service distributions; `servers`/`per_server_rates` (empty:
// all single-server) select Erlang-C M/M/c for multi-server queues. Single-server queues
// use M/M/1 when the service is exponential and Pollaczek-Khinchine M/G/1 otherwise.
AnalyticPrediction AnalyzeCellAnalytic(const QueueingNetwork& net,
                                       std::span<const int> servers = {},
                                       std::span<const double> per_server_rates = {});

class ScenarioEngine {
 public:
  struct Stats {
    double wall_seconds = 0.0;
    double cells_per_second = 0.0;
  };

  explicit ScenarioEngine(ScenarioEngineOptions options = {});
  ~ScenarioEngine();

  // Evaluates every grid cell against `base`'s topology and the posterior draws.
  // `base` supplies queue names and the routing FSM; service rates come from the draws.
  //
  // Clone-free fast path: each (cell, draw) is realized as a CellOverlay over the shared
  // immutable base (no network clones), simulated through a per-worker SimScratch arena,
  // and reduced with single-pass post-warmup reducers — bit-identical to the historical
  // clone-per-cell evaluation for every seed/thread-count/CRN combination (pinned by the
  // golden-report tests). Workspaces persist across Evaluate calls, so repeated
  // same-shaped evaluations allocate only the report itself.
  ScenarioReport Evaluate(const QueueingNetwork& base, const ParameterPosterior& posterior,
                          const ScenarioGrid& grid, std::uint64_t seed);

  const Stats& LastStats() const { return stats_; }
  const ScenarioEngineOptions& Options() const { return options_; }

 private:
  ScenarioEngineOptions options_;
  Stats stats_;
  // options.threads workers (infer/thread_pool.h), each owning one workspace; created at
  // the first Evaluate and kept, and replaced after an Evaluate that threw.
  std::unique_ptr<OrderedPool<ScenarioCellWorkspace>> pool_;
};

}  // namespace qnet

#endif  // QNET_SCENARIO_SCENARIO_ENGINE_H_
