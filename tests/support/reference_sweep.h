// The batched kernel's oracle sweep: the colored schedule GibbsSampler::Sweep runs, with
// every bucket driven move-at-a-time through BatchedExponentialMoveKernel::
// RunBucketReference instead of the SIMD tiles. Same moves, same buckets, same lane
// streams (one NextU64 per sweep seeds the buckets), so after the same sweeps from the
// same state and seed it holds bit-for-bit the sampler's state. The bit-equality tests
// and perf_gibbs's in-run A/B row compare the sampler against it.

#ifndef QNET_TESTS_SUPPORT_REFERENCE_SWEEP_H_
#define QNET_TESTS_SUPPORT_REFERENCE_SWEEP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "qnet/infer/gibbs.h"
#include "qnet/infer/move_kernel.h"
#include "qnet/infer/sharded_sweep.h"
#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/support/rng.h"

namespace qnet_testing {

class ReferenceSweeper {
 public:
  // Mirrors a GibbsSampler(state, obs, rates, options).
  ReferenceSweeper(qnet::EventLog state, const qnet::Observation& obs,
                   std::vector<double> rates, const qnet::GibbsOptions& options = {})
      : state_(std::move(state)), rates_(std::move(rates)), width_(options.batch_width) {
    std::vector<qnet::SweepMove> arrival_moves;
    std::vector<qnet::SweepMove> final_moves;
    qnet::CollectLatentMoves(state_, obs, arrival_moves, final_moves);
    num_latent_arrivals_ = arrival_moves.size();
    scheduler_.Rebuild(state_, qnet::ConcatSweepMoves(arrival_moves, final_moves,
                                                      options.resample_final_departures));
  }

  void Sweep(qnet::Rng& rng) {
    const qnet::BatchedExponentialMoveKernel kernel(rates_, width_);
    scheduler_.RunBuckets(
        [&](const qnet::SweepBucket& bucket) {
          kernel.RunBucketReference(state_, bucket.moves, bucket.seed);
        },
        rng.NextU64());
  }

  const qnet::EventLog& State() const { return state_; }
  std::size_t NumLatentArrivals() const { return num_latent_arrivals_; }

 private:
  qnet::EventLog state_;
  std::vector<double> rates_;
  std::size_t width_;
  qnet::ShardedSweepScheduler scheduler_;
  std::size_t num_latent_arrivals_ = 0;
};

}  // namespace qnet_testing

#endif  // QNET_TESTS_SUPPORT_REFERENCE_SWEEP_H_
