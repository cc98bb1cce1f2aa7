#include "qnet/infer/parallel_chains.h"

#include <algorithm>

#include "qnet/infer/diagnostics.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/support/check.h"
#include "qnet/support/stopwatch.h"

namespace qnet {
namespace {

// Derives one independent stream seed per chain from the master seed, in chain order —
// the c-th chain's stream is a pure function of (seed, c).
std::vector<std::uint64_t> DeriveChainSeeds(std::uint64_t seed, std::size_t chains) {
  Rng master(seed);
  std::vector<std::uint64_t> seeds(chains);
  for (std::uint64_t& s : seeds) {
    s = master.NextU64();
  }
  return seeds;
}

}  // namespace

ParallelChainsResult RunParallelChains(const EventLog& truth, const Observation& obs,
                                       const std::vector<double>& rates, std::uint64_t seed,
                                       const ParallelChainsOptions& options) {
  QNET_CHECK(options.chains >= 1, "need at least one chain");
  QNET_CHECK(options.sweeps > options.burn_in, "sweeps must exceed burn-in; sweeps=",
             options.sweeps, " burn_in=", options.burn_in);
  // R-hat over >= 2 chains needs at least 2 post-burn-in draws per chain; fail here
  // instead of after all the sampling work is done.
  QNET_CHECK(options.chains < 2 || options.sweeps - options.burn_in >= 2,
             "R-hat needs >= 2 post-burn-in sweeps per chain; sweeps=", options.sweeps,
             " burn_in=", options.burn_in);
  const Stopwatch total;
  const int num_queues = truth.NumQueues();
  const std::size_t threads = ResolveThreadCount(options.threads, options.chains);
  const std::vector<std::uint64_t> chain_seeds = DeriveChainSeeds(seed, options.chains);

  ParallelChainsResult result(num_queues, options.tail_quantile);
  result.per_chain.assign(options.chains, PosteriorSummary(num_queues, options.tail_quantile));
  result.chain_stats.assign(options.chains, ChainStats{});

  RunOnThreadPool(options.chains, threads, [&](std::size_t c) {
    const Stopwatch chain_total;
    Rng chain_rng(chain_seeds[c]);
    // Independent random initializations diversify the chain starts (required for R-hat to
    // be an honest convergence check).
    GibbsSampler sampler(InitializeFeasible(truth, obs, rates, chain_rng, options.init), obs,
                         rates, options.gibbs);
    PosteriorSummary& summary = result.per_chain[c];
    for (std::size_t sweep = 0; sweep < options.sweeps; ++sweep) {
      sampler.Sweep(chain_rng);
      if (sweep >= options.burn_in) {
        summary.Accumulate(sampler.State());
      }
    }
    ChainStats& stats = result.chain_stats[c];
    stats.seed = chain_seeds[c];
    stats.draws = summary.NumSamples();
    stats.seconds = chain_total.ElapsedSeconds();
  });

  // Pool in chain-index order on the calling thread: bit-identical for any thread count.
  for (const PosteriorSummary& summary : result.per_chain) {
    result.pooled.Merge(summary);
    result.total_draws += summary.NumSamples();
  }

  // R-hat needs >= 2 chains; a single chain reports the neutral value 1 everywhere.
  result.r_hat_service.assign(static_cast<std::size_t>(num_queues), 1.0);
  result.max_r_hat = 1.0;
  if (options.chains >= 2) {
    result.max_r_hat = 0.0;
    for (int q = 1; q < num_queues; ++q) {
      std::vector<std::vector<double>> series;
      series.reserve(options.chains);
      for (const PosteriorSummary& summary : result.per_chain) {
        series.push_back(summary.ServiceSeries(q));
      }
      const double r_hat = GelmanRubin(series);
      result.r_hat_service[static_cast<std::size_t>(q)] = r_hat;
      result.max_r_hat = std::max(result.max_r_hat, r_hat);
    }
  }
  result.wall_seconds = total.ElapsedSeconds();
  return result;
}

ParallelStemResult RunParallelStem(const EventLog& truth, const Observation& obs,
                                   const std::vector<double>& init_rates, std::uint64_t seed,
                                   const StemOptions& stem_options, std::size_t chains,
                                   std::size_t threads) {
  QNET_CHECK(chains >= 1, "need at least one chain");
  // Mirrors the RunParallelChains precondition: the cross-chain R-hat needs length >= 2
  // post-burn-in rate traces (StemEstimator itself only enforces iterations > burn_in).
  QNET_CHECK(chains < 2 || stem_options.iterations - stem_options.burn_in >= 2,
             "R-hat needs >= 2 post-burn-in StEM iterations per chain; iterations=",
             stem_options.iterations, " burn_in=", stem_options.burn_in);
  const Stopwatch total;
  const std::size_t num_queues = static_cast<std::size_t>(truth.NumQueues());
  const std::vector<std::uint64_t> chain_seeds = DeriveChainSeeds(seed, chains);

  ParallelStemResult result;
  result.per_chain.assign(chains, StemResult{});

  RunOnThreadPool(chains, ResolveThreadCount(threads, chains), [&](std::size_t c) {
    Rng chain_rng(chain_seeds[c]);
    result.per_chain[c] =
        StemEstimator(stem_options).Run(truth, obs, init_rates, chain_rng);
  });

  result.pooled_rates.assign(num_queues, 0.0);
  for (const StemResult& chain : result.per_chain) {
    for (std::size_t q = 0; q < num_queues; ++q) {
      result.pooled_rates[q] += chain.rates[q] / static_cast<double>(chains);
    }
  }
  result.pooled_mean_service.assign(num_queues, 0.0);
  for (std::size_t q = 0; q < num_queues; ++q) {
    result.pooled_mean_service[q] = 1.0 / result.pooled_rates[q];
  }

  result.r_hat_rates.assign(num_queues, 1.0);
  result.max_r_hat = 1.0;
  if (chains >= 2) {
    result.max_r_hat = 0.0;
    for (std::size_t q = 0; q < num_queues; ++q) {
      std::vector<std::vector<double>> series;
      series.reserve(chains);
      for (const StemResult& chain : result.per_chain) {
        std::vector<double> trace;
        trace.reserve(chain.rate_trace.size() - stem_options.burn_in);
        for (std::size_t iter = stem_options.burn_in; iter < chain.rate_trace.size(); ++iter) {
          trace.push_back(chain.rate_trace[iter][q]);
        }
        series.push_back(std::move(trace));
      }
      const double r_hat = GelmanRubin(series);
      result.r_hat_rates[q] = r_hat;
      result.max_r_hat = std::max(result.max_r_hat, r_hat);
    }
  }
  result.wall_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace qnet
