// Gibbs sampler over the unobserved arrival/departure times of an event log
// (paper Section 3).
//
// Two move types compose a sweep:
//  * arrival moves — resample a_e (jointly with d_pi(e)) for every non-initial event whose
//    arrival is unobserved, using the exact three-piece conditional of Figure 3;
//  * final-departure moves — resample the system exit time of every task whose last
//    departure is unobserved (the arrival move never touches these because nothing arrives
//    when a task leaves the system).
//
// The per-move logic lives in BatchedExponentialMoveKernel (infer/move_kernel.h); this
// class is a thin sweep driver: it owns the state, the move list and a scheduler slot.
// Every sweep is one systematic scan over the colored schedule (infer/sharded_sweep.h):
// color classes in sequence, each class's conflict-free buckets through the batched
// kernel. The schedule has one shard unless EnableShardedSweeps / UseScheduler asks for
// more, and results are bit-identical for any thread count.
//
// The per-queue arrival order and the FSM routes are held fixed throughout (the paper's
// standing assumptions); every accepted move preserves feasibility by construction because
// the conditional's support is exactly the feasible window.

#ifndef QNET_INFER_GIBBS_H_
#define QNET_INFER_GIBBS_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "qnet/infer/move_kernel.h"
#include "qnet/infer/sharded_sweep.h"
#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/support/rng.h"

namespace qnet {

struct GibbsOptions {
  // Also resample unobserved task exit times. Disable only for the ablation bench.
  bool resample_final_departures = true;
  // Tile width of the batched kernel (1..kMaxBatchWidth). Part of the stream layout.
  std::size_t batch_width = BatchedExponentialMoveKernel::kDefaultWidth;
  // Sweeps always run the batched kernel; kept only for perfbench/src/traced.cc's check.
  static constexpr bool batched = true;
};

class GibbsSampler {
 public:
  // `state` must be feasible and observationally consistent (observed times already equal
  // the measurements). `rates` holds mu_q for every queue, index 0 = lambda.
  GibbsSampler(EventLog state, const Observation& obs, std::vector<double> rates,
               GibbsOptions options = {});

  // A sampler with no trace yet: write the trace into MutableState() in place (e.g.
  // InitializeFeasibleInto), then Retarget before the first Sweep. Long-lived owners
  // (StemWorkspace) keep one sampler and re-target it per trace, so its move lists,
  // schedule input, service cache and tile scratch keep their capacity.
  GibbsSampler();

  // Points the sampler at the trace now in MutableState(), with `rates` and `options`:
  // the constructor's checks and latent-move collection, reusing every buffer. Detaches
  // a caller-owned scheduler and returns the owned slot to the single-shard schedule
  // (call EnableShardedSweeps / UseScheduler again for more shards), and turns
  // sufficient-statistics tracking off.
  void Retarget(const Observation& obs, std::span<const double> rates,
                const GibbsOptions& options);

  const EventLog& State() const { return state_; }
  // Mutating the state through this handle may change the link structure (e.g. route
  // Metropolis-Hastings reassigning queues), and the schedule's coloring and move
  // geometry are functions of the links. So this marks the schedule stale, and the next
  // Sweep rebuilds whichever scheduler it drives — the owned one or one attached by
  // UseScheduler — against the current links.
  EventLog& MutableState() {
    rebuilt_for_ = nullptr;
    return state_;
  }

  const std::vector<double>& Rates() const { return rates_; }
  // Copies `rates` into the sampler's rate vector (no allocation once sized).
  void SetRates(std::span<const double> rates);

  // One systematic scan over all latent variables: the colored schedule's buckets through
  // the batched kernel. Consumes exactly one NextU64 from `rng` per sweep, which seeds
  // the per-bucket streams.
  void Sweep(Rng& rng);

  // Replaces the owned scheduler with one of `options`. Results depend on options.shards
  // but never on options.threads (bit-identical for any thread count).
  void EnableShardedSweeps(const ShardedSweepOptions& options = {});
  // The scheduler sweeps run through: the caller-owned one, else the owned one (coloring
  // and shard diagnostics). Null only before the first Sweep of a sampler that was never
  // given one.
  const ShardedSweepScheduler* Scheduler() const {
    return external_scheduler_ != nullptr ? external_scheduler_ : scheduler_.get();
  }

  // Like EnableShardedSweeps, but drives sweeps through a caller-owned scheduler that is
  // Rebuilt here against this sampler's trace. Long-lived callers (the streaming window
  // loop) pass the same scheduler to every sampler they create, so rescheduling reuses
  // its buffers and thread pool instead of paying a fresh construction per window.
  // Non-owning: `scheduler` must outlive the sampler; nullptr detaches.
  void UseScheduler(ShardedSweepScheduler* scheduler);

  // Fused M-step sufficient statistics. When enabled, every sweep keeps a per-event
  // service-time cache coherent at move scatter, and PerQueueServiceSumsInto re-derives
  // the per-queue sums from the cache in event-id order — bitwise the same totals as
  // EventLog::PerQueueServiceSum's full scan (same terms, same addition order), without
  // walking the event structs and their rho links per StEM iteration. Calling
  // EnableSuffStatsTracking (again) resynchronizes the cache from the current state —
  // required after mutating times through MutableState().
  void EnableSuffStatsTracking();
  bool SuffStatsTrackingEnabled() const { return !service_cache_.empty(); }
  // sums.size() must equal the queue count. CHECK-fails unless tracking is enabled.
  void PerQueueServiceSumsInto(std::span<double> sums) const;

  // The sweep's moves in event-id order: arrival moves, then final-departure moves when
  // enabled. The colored schedule is a reordering of exactly this list.
  std::vector<SweepMove> SweepMoves() const;

  std::size_t NumLatentArrivals() const { return arrival_moves_.size(); }
  std::size_t NumLatentFinalDepartures() const { return final_moves_.size(); }

  // Unnormalized log joint of the current service times under exponential rates (density
  // part of eq. (1)); useful as a mixing diagnostic.
  double LogJointExponential() const;

 private:
  // The scheduler Sweep routes through: the caller-owned one, else the owned one, built
  // single-shard on first use (batching needs a coloring even when nothing runs in
  // parallel). Rebuilt first unless it already holds this trace's current links.
  ShardedSweepScheduler* EffectiveScheduler();
  void RebuildSchedule(ShardedSweepScheduler& scheduler);

  EventLog state_;
  std::vector<double> rates_;
  GibbsOptions options_;
  std::vector<SweepMove> arrival_moves_;
  std::vector<SweepMove> final_moves_;
  std::vector<SweepMove> schedule_input_;  // SweepMoves(), reused by every Rebuild
  // Owned schedule: single-shard by default, EnableShardedSweeps' options after it.
  std::unique_ptr<ShardedSweepScheduler> scheduler_;
  ShardedSweepScheduler* external_scheduler_ = nullptr;
  // The scheduler last rebuilt on the current links; null once MutableState() or
  // Retarget may have changed them.
  const ShardedSweepScheduler* rebuilt_for_ = nullptr;
  // Per-event service times, kept coherent by move scatter when tracking is enabled.
  std::vector<double> service_cache_;
  // Batched-kernel tile scratch, one per scheduler participant thread.
  std::vector<PiecewiseExpBatch> tile_batches_;
};

}  // namespace qnet

#endif  // QNET_INFER_GIBBS_H_
