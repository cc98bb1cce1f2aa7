#include "qnet/infer/gibbs.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "qnet/support/check.h"
#include "qnet/support/logspace.h"

namespace qnet {

GibbsSampler::GibbsSampler(EventLog state, const Observation& obs, std::vector<double> rates,
                           GibbsOptions options)
    : state_(std::move(state)) {
  Retarget(obs, rates, options);
}

// The smallest valid log (the arrival queue plus one), empty until the first write.
GibbsSampler::GibbsSampler() : state_(/*num_queues=*/2) {}

void GibbsSampler::Retarget(const Observation& obs, std::span<const double> rates,
                            const GibbsOptions& options) {
  options_ = options;
  obs.Validate(state_);
  QNET_CHECK(rates.size() == static_cast<std::size_t>(state_.NumQueues()),
             "rates size mismatch");
  rates_.assign(rates.begin(), rates.end());
  std::string why;
  QNET_CHECK(state_.IsFeasible(1e-6, &why), "initial Gibbs state infeasible: ", why);
  arrival_moves_.clear();
  final_moves_.clear();
  CollectLatentMoves(state_, obs, arrival_moves_, final_moves_);
  if (scheduler_ != nullptr && scheduler_->NumShards() != 1) {
    scheduler_.reset();  // the next Sweep builds the single-shard schedule
  }
  external_scheduler_ = nullptr;
  rebuilt_for_ = nullptr;
  service_cache_.clear();
}

void GibbsSampler::SetRates(std::span<const double> rates) {
  QNET_CHECK(rates.size() == rates_.size(), "rates size mismatch");
  for (double r : rates) {
    QNET_CHECK(r > 0.0, "rates must be positive");
  }
  rates_.assign(rates.begin(), rates.end());
}

void GibbsSampler::RebuildSchedule(ShardedSweepScheduler& scheduler) {
  schedule_input_.assign(arrival_moves_.begin(), arrival_moves_.end());
  if (options_.resample_final_departures) {
    schedule_input_.insert(schedule_input_.end(), final_moves_.begin(), final_moves_.end());
  }
  scheduler.Rebuild(state_, schedule_input_);
  rebuilt_for_ = &scheduler;
  if (tile_batches_.size() < scheduler.NumThreads()) {
    tile_batches_.resize(scheduler.NumThreads());
  }
}

ShardedSweepScheduler* GibbsSampler::EffectiveScheduler() {
  ShardedSweepScheduler* scheduler = external_scheduler_;
  if (scheduler == nullptr) {
    if (scheduler_ == nullptr) {
      scheduler_ = std::make_unique<ShardedSweepScheduler>(
          ShardedSweepOptions{.shards = 1, .threads = 1});
    }
    scheduler = scheduler_.get();
  }
  if (rebuilt_for_ != scheduler) {
    // The coloring and the move geometry are functions of the links, which
    // MutableState() may have changed since this scheduler was last built.
    RebuildSchedule(*scheduler);
  }
  return scheduler;
}

void GibbsSampler::Sweep(Rng& rng) {
  ShardedSweepScheduler* scheduler = EffectiveScheduler();
  const BatchedExponentialMoveKernel kernel(rates_, options_.batch_width, service_cache_);
  scheduler->RunBuckets(
      [&](const SweepBucket& bucket) {
        kernel.RunBucket(state_, bucket.moves, bucket.geometry, bucket.seed,
                         tile_batches_[bucket.participant]);
      },
      rng.NextU64());
}

void GibbsSampler::EnableShardedSweeps(const ShardedSweepOptions& options) {
  scheduler_ = std::make_unique<ShardedSweepScheduler>(options);
  RebuildSchedule(*scheduler_);
}

void GibbsSampler::UseScheduler(ShardedSweepScheduler* scheduler) {
  if (scheduler != nullptr) {
    RebuildSchedule(*scheduler);
  }
  external_scheduler_ = scheduler;
}

void GibbsSampler::EnableSuffStatsTracking() {
  service_cache_.resize(state_.NumEvents());
  for (EventId e = 0; static_cast<std::size_t>(e) < state_.NumEvents(); ++e) {
    service_cache_[static_cast<std::size_t>(e)] = state_.ServiceTime(e);
  }
}

void GibbsSampler::PerQueueServiceSumsInto(std::span<double> sums) const {
  QNET_CHECK(SuffStatsTrackingEnabled(), "EnableSuffStatsTracking first");
  QNET_CHECK(sums.size() == rates_.size(), "sums size mismatch");
  std::fill(sums.begin(), sums.end(), 0.0);
  for (EventId e = 0; static_cast<std::size_t>(e) < state_.NumEvents(); ++e) {
    sums[static_cast<std::size_t>(state_.AtUnchecked(e).queue)] +=
        service_cache_[static_cast<std::size_t>(e)];
  }
}

std::vector<SweepMove> GibbsSampler::SweepMoves() const {
  return ConcatSweepMoves(arrival_moves_, final_moves_, options_.resample_final_departures);
}

double GibbsSampler::LogJointExponential() const {
  double total = 0.0;
  for (EventId e = 0; static_cast<std::size_t>(e) < state_.NumEvents(); ++e) {
    const double mu = rates_[static_cast<std::size_t>(state_.At(e).queue)];
    total += std::log(mu) - mu * std::max(state_.ServiceTime(e), 0.0);
  }
  return total;
}

}  // namespace qnet
