// Parallel multi-chain sampling engine: K independent Gibbs (or StEM) chains on a thread
// pool, pooling their posterior draws.
//
// Why: the paper's sampler mixes slowly on sparse observations, so wall-clock accuracy is
// bounded by aggregate sweeps/second. Independent chains are embarrassingly parallel, give
// R-hat convergence diagnostics for free, and pooling their post-burn-in draws multiplies
// the effective draw budget per unit wall-clock.
//
// Threading model (deterministic by construction):
//  * chain c gets its own xoshiro256++ stream seeded from the c-th NextU64() of a master
//    SplitMix-seeded Rng — chain streams depend only on (seed, c), never on scheduling;
//  * chains are assigned to threads statically (chain c -> thread c mod T), each chain
//    writes only its own result slot, and the shared inputs (EventLog, Observation, rates)
//    are read-only — no locks, no atomics, no false sharing on the hot path;
//  * pooled summaries are merged on the calling thread in chain-index order after join,
//    so the pooled output is bit-identical for a fixed (seed, chains) regardless of T.
// Consequence: results are reproducible across machines and thread counts; T only changes
// wall-clock time. A chain sweeps on the thread that runs it (infer/sharded_sweep.h), so
// chains are the only parallel axis.

#ifndef QNET_INFER_PARALLEL_CHAINS_H_
#define QNET_INFER_PARALLEL_CHAINS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/infer/posterior.h"
#include "qnet/infer/stem.h"
#include "qnet/model/event.h"
#include "qnet/obs/observation.h"

namespace qnet {

struct ParallelChainsOptions {
  std::size_t chains = 4;
  // Worker threads; 0 = one thread per chain capped at the hardware concurrency. The
  // result is identical for every value — threads only affect wall-clock.
  std::size_t threads = 0;
  std::size_t sweeps = 200;
  std::size_t burn_in = 50;
  double tail_quantile = 0.95;
  GibbsOptions gibbs;
  InitializerOptions init;
};

struct ChainStats {
  std::uint64_t seed = 0;        // the chain's derived stream seed
  std::size_t draws = 0;         // post-burn-in draws contributed to the pool
  double seconds = 0.0;          // wall time of this chain's init + sweeps
};

struct ParallelChainsResult {
  // Pooled posterior draws across chains, in chain-index order (post burn-in).
  PosteriorSummary pooled;
  std::vector<PosteriorSummary> per_chain;
  std::vector<ChainStats> chain_stats;
  // Per-queue Gelman-Rubin statistics on the mean-service series (queues 1..Q; index 0 is
  // held at 1). Values near 1 indicate the chains agree.
  std::vector<double> r_hat_service;
  double max_r_hat = 0.0;
  std::size_t total_draws = 0;
  double wall_seconds = 0.0;  // end-to-end, including pooling

  double DrawsPerSecond() const {
    return wall_seconds > 0.0 ? static_cast<double>(total_draws) / wall_seconds : 0.0;
  }

  explicit ParallelChainsResult(int num_queues, double tail_quantile)
      : pooled(num_queues, tail_quantile) {}
};

// Runs K independently-initialized Gibbs chains at fixed rates and pools their draws.
// `truth` provides structure + observed times; `rates` holds mu_q (index 0 = lambda).
ParallelChainsResult RunParallelChains(const EventLog& truth, const Observation& obs,
                                       const std::vector<double>& rates, std::uint64_t seed,
                                       const ParallelChainsOptions& options = {});

struct ParallelStemResult {
  // Mean of the per-chain StEM rate estimates (index 0 = lambda-hat).
  std::vector<double> pooled_rates;
  std::vector<double> pooled_mean_service;  // 1 / pooled_rates
  std::vector<StemResult> per_chain;
  // Per-queue R-hat over the post-burn-in rate trajectories across chains.
  std::vector<double> r_hat_rates;
  double max_r_hat = 0.0;
  double wall_seconds = 0.0;
};

// Runs K independent StEM estimators (each with its own Gibbs chain) in parallel and pools
// the rate estimates. Empty `init_rates` uses the warm start, as in StemEstimator::Run.
ParallelStemResult RunParallelStem(const EventLog& truth, const Observation& obs,
                                   const std::vector<double>& init_rates, std::uint64_t seed,
                                   const StemOptions& stem_options = {},
                                   std::size_t chains = 4, std::size_t threads = 0);

}  // namespace qnet

#endif  // QNET_INFER_PARALLEL_CHAINS_H_
