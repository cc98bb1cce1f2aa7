// Stochastic EM (paper Section 4).
//
// StEM alternates (i) an E-step that replaces the unobserved times with ONE Gibbs sweep from
// p(E_latent | E_observed, theta) and (ii) an M-step that sets theta = (lambda, {mu_q}) to
// the complete-data maximum-likelihood estimate mu_q = n_q / sum_{e at q} s_e. The returned
// point estimate averages the post-burn-in iterates (the standard StEM estimator); the
// per-queue waiting times are then estimated by running the Gibbs sampler with the final
// rates held fixed, as the paper prescribes.

#ifndef QNET_INFER_STEM_H_
#define QNET_INFER_STEM_H_

#include <cstddef>
#include <span>
#include <vector>

#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"

namespace qnet {

struct StemOptions {
  std::size_t iterations = 200;
  std::size_t burn_in = 50;
  // Gibbs sweeps per E-step (the paper uses exactly 1).
  std::size_t sweeps_per_iteration = 1;
  // Extra fixed-rate Gibbs sweeps used to estimate waiting times after the rate estimate is
  // frozen; 0 disables the waiting-time phase.
  std::size_t wait_sweeps = 50;
  // Keep lambda fixed at its initial value instead of re-estimating it.
  bool estimate_arrival_rate = true;
  // Floor applied to per-queue service-time sums in the M-step (guards divide-by-zero when
  // a queue's imputed services collapse to ~0 early on).
  double service_sum_floor = 1e-9;
  // Time origin of the arrival process for the M-step's lambda estimate. Queue-0
  // "services" are the interarrival gaps with the FIRST gap measured from absolute time
  // 0, so their sum telescopes to the (imputed) last entry time and the lambda iterate on
  // a window [t0, t1) far into a stream comes out as ~n/t1 — decaying with stream age
  // rather than tracking the window's load (the PR-4 forecaster wart). Setting this to
  // the window's t0 measures that first gap from t0 instead, making the iterate the
  // window-local MLE n/(last entry - t0). The default 0.0 preserves the historical
  // absolute-time estimate bit-exactly; StreamingEstimatorOptions::window_local_arrival_rate
  // plumbs the per-window t0 in for streaming fits.
  double arrival_time_origin = 0.0;
  // Deterministic early stop on the StEM point estimate (the post-burn-in running mean
  // of the rate iterates). After each post-burn-in iteration the running mean is
  // compared against its previous value; once the max relative change across queues
  // stays <= convergence_tol for convergence_patience consecutive iterations, the loop
  // stops and StemResult::iterations_run records how many iterations actually ran. The
  // rule is a pure function of the rate trace — an early-stopped run's rate_trace is
  // bit-for-bit a prefix of the full run's, and its estimate is the average of that
  // prefix. 0 disables (the default), preserving the fixed-iteration behavior exactly.
  // Warm starts near the fixed point (e.g. mean-field seeds; see infer/meanfield.h)
  // make this the streaming fast path's headline win.
  double convergence_tol = 0.0;
  std::size_t convergence_patience = 3;
  GibbsOptions gibbs;
  InitializerOptions init;
  // Sweeps always run one shard on the caller's thread; kept only for
  // perfbench/src/traced.cc's check, like GibbsOptions::batched.
  static constexpr bool sharded_sweeps = false;
  // Has no effect: the sampler always sweeps on its own schedule, which a StemWorkspace
  // keeps across runs. Kept assignable only for perfbench/src/traced.cc, like
  // ShardedSweepOptions::{shards, threads}.
  ShardedSweepScheduler* scheduler_cache = nullptr;
};

// The StEM rate iterates theta_t (index 0 = lambda), one row per iteration, row-major in
// one buffer: a run appends each iteration's row without allocating it.
struct RateTrace {
  std::size_t num_queues = 0;  // the row width
  std::vector<double> values;  // NumIterations() rows of num_queues rates

  std::size_t NumIterations() const { return num_queues == 0 ? 0 : values.size() / num_queues; }
  // Iteration `iter`'s rate vector.
  std::span<const double> Row(std::size_t iter) const {
    QNET_CHECK(iter < NumIterations(), "rate trace row ", iter, " out of range");
    return {values.data() + iter * num_queues, num_queues};
  }

  friend bool operator==(const RateTrace&, const RateTrace&) = default;
};

struct StemResult {
  // Post-burn-in averaged rate estimates; index 0 is lambda-hat.
  std::vector<double> rates;
  // Convenience: 1 / rates (estimated mean service times; index 0 = mean interarrival).
  std::vector<double> mean_service;
  // Posterior-mean per-queue waiting time under the final rates (empty if wait_sweeps == 0).
  std::vector<double> mean_wait;
  // Rate trajectory, one row per StEM iteration (for diagnostics and posterior draws).
  RateTrace rate_trace;

  std::size_t latent_arrivals = 0;
  // StEM iterations actually executed (== rate_trace.NumIterations()); less than
  // StemOptions::iterations when the convergence_tol early stop fired.
  std::size_t iterations_run = 0;
};

// Reusable working memory for StemEstimator::Run. A streaming lane fits its windows
// strictly one after another, so it owns one workspace, and each window reuses the
// initializer's scratch, one sampler (re-targeted per window: its state log, move lists
// and schedule keep their capacity) and the M-step and wait-phase buffers instead of
// rebuilding them. A warm window whose trace is no larger than an earlier one therefore
// allocates only its StemResult. Results are bit-identical to a fresh workspace. One
// Run at a time per workspace.
class StemWorkspace {
 public:
  // The last Run's final latent state (its last Gibbs sample); valid until the next Run.
  const EventLog& State() const { return sampler_.State(); }

 private:
  friend class StemEstimator;

  InitializerScratch init_;
  GibbsSampler sampler_;
  std::vector<std::size_t> counts_;
  std::vector<double> sums_;
  std::vector<double> rates_;
  std::vector<double> new_rates_;
  std::vector<double> rate_accum_;
  std::vector<double> prev_mean_;
  std::vector<double> wait_accum_;
};

class StemEstimator {
 public:
  explicit StemEstimator(StemOptions options = {}) : options_(options) {}

  // `truth` provides structure + observed times (unobserved times are never read); `obs`
  // marks what is observed; `init_rates` seeds theta (index 0 = lambda). Passing an empty
  // vector uses WarmStartRates(truth, obs) — recommended: from a cold start the EM fixed
  // point contracts at roughly (1 - observed fraction) per iteration, so sparse traces
  // converge very slowly without a scale-correct start.
  StemResult Run(const EventLog& truth, const Observation& obs,
                 std::vector<double> init_rates, Rng& rng) const;
  // The same run on `workspace`'s reusable buffers (the overload above uses a call-local
  // one); afterwards workspace.State() holds the final latent state.
  StemResult Run(const EventLog& truth, const Observation& obs,
                 std::vector<double> init_rates, Rng& rng, StemWorkspace& workspace) const;

  // Complete-data MLE of all rates from an event log: mu_q = n_q / sum s_e. The arrival
  // rate (queue 0) measures its service sum from `arrival_time_origin` (see StemOptions).
  static std::vector<double> MStep(const EventLog& log, double service_sum_floor = 1e-9,
                                   double arrival_time_origin = 0.0);

  // The same MLE arithmetic from externally-gathered sufficient statistics, written into
  // `rates` (all spans one slot per queue). Feeding it EventLog::PerQueueServiceSumInto
  // plus the (link-constant) PerQueueCount reproduces MStep(log) bit for bit — the Run
  // loop's per-iteration path, which gathers the counts once per run.
  static void MStepFromSums(std::span<const double> sums,
                            std::span<const std::size_t> counts, std::span<double> rates,
                            double service_sum_floor = 1e-9,
                            double arrival_time_origin = 0.0);

 private:
  StemOptions options_;
};

}  // namespace qnet

#endif  // QNET_INFER_STEM_H_
