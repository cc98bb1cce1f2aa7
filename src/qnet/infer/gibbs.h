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
// class is a thin sweep driver: it owns the state, the move lists and the schedule.
// Every sweep is one systematic scan over the colored schedule (infer/sharded_sweep.h) on
// the caller's thread: color classes in sequence, each class one conflict-free bucket
// through the batched kernel.
//
// The per-queue arrival order and the FSM routes are held fixed throughout (the paper's
// standing assumptions); every accepted move preserves feasibility by construction because
// the conditional's support is exactly the feasible window.

#ifndef QNET_INFER_GIBBS_H_
#define QNET_INFER_GIBBS_H_

#include <cstddef>
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
  // schedule and tile scratch keep their capacity.
  GibbsSampler();

  // Points the sampler at the trace now in MutableState(), with `rates` and `options`:
  // the constructor's checks and latent-move collection, reusing every buffer. Marks the
  // schedule stale.
  void Retarget(const Observation& obs, std::span<const double> rates,
                const GibbsOptions& options);

  const EventLog& State() const { return state_; }
  // Mutating the state through this handle may change the link structure (e.g.
  // EventLog::MoveEventToQueue reassigning an event), and the schedule's coloring and
  // move geometry are functions of the links. So this marks the schedule stale, and the
  // next Sweep rebuilds it against the current links.
  EventLog& MutableState() {
    schedule_stale_ = true;
    return state_;
  }

  const std::vector<double>& Rates() const { return rates_; }
  // Copies `rates` into the sampler's rate vector (no allocation once sized).
  void SetRates(std::span<const double> rates);

  // One systematic scan over all latent variables: the colored schedule's buckets through
  // the batched kernel. Consumes exactly one NextU64 from `rng` per sweep, which seeds
  // the per-bucket streams.
  void Sweep(Rng& rng);

  // The sweep's moves in event-id order: arrival moves, then final-departure moves when
  // enabled. The colored schedule is a reordering of exactly this list.
  std::vector<SweepMove> SweepMoves() const;

  std::size_t NumLatentArrivals() const { return arrival_moves_.size(); }
  std::size_t NumLatentFinalDepartures() const { return final_moves_.size(); }

  // Unnormalized log joint of the current service times under exponential rates (density
  // part of eq. (1)); useful as a mixing diagnostic.
  double LogJointExponential() const;

 private:
  void RebuildSchedule();

  EventLog state_;
  std::vector<double> rates_;
  GibbsOptions options_;
  std::vector<SweepMove> arrival_moves_;
  std::vector<SweepMove> final_moves_;
  std::vector<SweepMove> schedule_input_;  // SweepMoves(), reused by every Rebuild
  ShardedSweepScheduler scheduler_;
  // Set once MutableState() or Retarget may have changed the links scheduler_ was built
  // on; the next Sweep rebuilds it.
  bool schedule_stale_ = true;
  // Batched-kernel tile scratch.
  PiecewiseExpBatch tile_batch_;
};

}  // namespace qnet

#endif  // QNET_INFER_GIBBS_H_
