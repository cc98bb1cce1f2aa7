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
// The per-move logic lives in ExponentialMoveKernel (infer/move_kernel.h); this class is a
// thin sweep driver: it owns the state, the move list, and the scan policy. By default a
// sweep is the sequential scan over one RNG stream; EnableShardedSweeps switches it to the
// colored sharded schedule (infer/sharded_sweep.h), which runs conflict-free moves in
// parallel with bit-identical results for any thread count.
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
  // Visit latent events in random order each sweep instead of id order.
  bool shuffle_scan = false;
  // Execute sweeps through the batched SoA kernel: moves run in conflict-free buckets
  // (colored once per trace) processed in `batch_width`-move tiles, with the per-segment
  // transcendentals evaluated as contiguous vmath sweeps. Bit-identical for any thread
  // count (the batch composition is a pure function of the schedule), but a different —
  // equally distributed — stream layout than the scalar scan. Ignored under shuffle_scan,
  // whose per-sweep random order has no fixed schedule to color.
  bool batched = true;
  // Tile width of the batched kernel (1..kMaxBatchWidth). Part of the stream layout.
  std::size_t batch_width = BatchedExponentialMoveKernel::kDefaultWidth;
  // Drive the batched schedule through the move-at-a-time reference kernel instead of
  // the SIMD tiles: same buckets, same lane streams, bit-identical states. This is the
  // batched kernel's A/B partner — the bit-equality tests and the benchmark gate compare
  // the two executions of the identical algorithm — and is never faster, so production
  // samplers leave it off. Only meaningful when `batched` is set.
  bool batched_reference = false;
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
  // any scheduler the previous trace swept through (call EnableShardedSweeps /
  // UseScheduler again) and turns sufficient-statistics tracking off.
  void Retarget(const Observation& obs, std::span<const double> rates,
                const GibbsOptions& options);

  const EventLog& State() const { return state_; }
  // Mutating the state through this handle may change the link structure (e.g. route
  // Metropolis-Hastings reassigning queues), and the schedule's coloring and move
  // geometry are functions of the links. So this marks the schedule stale, and the next
  // Sweep rebuilds whichever scheduler it drives — the internal batch schedule or one
  // attached by EnableShardedSweeps / UseScheduler — against the current links.
  EventLog& MutableState() {
    rebuilt_for_ = nullptr;
    return state_;
  }

  const std::vector<double>& Rates() const { return rates_; }
  // Copies `rates` into the sampler's rate vector (no allocation once sized).
  void SetRates(std::span<const double> rates);

  // One systematic scan over all latent variables: sequential by default, the colored
  // sharded schedule after EnableShardedSweeps (which consumes exactly one NextU64 from
  // `rng` per sweep to seed the per-bucket streams).
  void Sweep(Rng& rng);

  // Switches Sweep to the ShardedSweepScheduler. Results depend on options.shards but
  // never on options.threads (bit-identical for any thread count); incompatible with
  // shuffle_scan, whose per-sweep random scan order has no fixed schedule to color.
  void EnableShardedSweeps(const ShardedSweepOptions& options = {});
  bool ShardedSweepsEnabled() const {
    return scheduler_ != nullptr || external_scheduler_ != nullptr;
  }
  // Non-null iff sharded sweeps are enabled (coloring/shard diagnostics).
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

  // The sweep's moves in sequential scan order: arrival moves, then final-departure moves
  // when enabled. The sharded schedule is a reordering of exactly this list.
  std::vector<SweepMove> SweepMoves() const;

  std::size_t NumLatentArrivals() const { return arrival_moves_.size(); }
  std::size_t NumLatentFinalDepartures() const { return final_moves_.size(); }

  // Unnormalized log joint of the current service times under exponential rates (density
  // part of eq. (1)); useful as a mixing diagnostic.
  double LogJointExponential() const;

 private:
  // The scheduler Sweep should route through: the caller-owned cache, then the owned one;
  // for batched sweeps with neither, the lazily-built internal single-shard schedule
  // (batching needs a coloring even when nothing runs in parallel). Rebuilt first unless
  // it already holds this trace's current links.
  ShardedSweepScheduler* EffectiveScheduler(bool build_batch_schedule);
  void RebuildSchedule(ShardedSweepScheduler& scheduler);

  EventLog state_;
  std::vector<double> rates_;
  GibbsOptions options_;
  std::vector<SweepMove> arrival_moves_;
  std::vector<SweepMove> final_moves_;
  std::vector<SweepMove> scan_buffer_;
  std::vector<SweepMove> schedule_input_;  // SweepMoves(), reused by every Rebuild
  std::unique_ptr<ShardedSweepScheduler> scheduler_;
  ShardedSweepScheduler* external_scheduler_ = nullptr;
  // Internal shards=1/threads=1 schedule for the default batched path; built on first
  // use so non-batched samplers never pay for it.
  std::unique_ptr<ShardedSweepScheduler> batch_scheduler_;
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
