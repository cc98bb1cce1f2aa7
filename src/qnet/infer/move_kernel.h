// The Gibbs move kernel — the one sampler core.
//
// A latent move is always the same shape: gather the move's fixed neighborhood, build the
// conditional on the feasible window, sample, write the new time(s) back in place.
// BatchedExponentialMoveKernel realizes it with the paper's exact piecewise-exponential
// conditional (Figure 3), one conflict-free bucket of the colored schedule at a time, in
// SIMD-width tiles. Every sweep — GibbsSampler's, and through it StEM's — runs this
// kernel over ShardedSweepScheduler::RunBuckets.
//
// Contracts:
//  * RunBucket is const and touches only its moves' footprints
//    (EventLog::ComputeMoveFootprint), so buckets whose footprints are disjoint commute;
//  * RunBucket performs zero heap allocations (the hot-path contract, enforced by
//    tests/test_alloc_free.cc);
//  * the kernel is a non-owning view over the parameters (the rates span, the optional
//    service cache); the referents must outlive it.

#ifndef QNET_INFER_MOVE_KERNEL_H_
#define QNET_INFER_MOVE_KERNEL_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "qnet/infer/conditional.h"
#include "qnet/infer/piecewise_exp.h"
#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/support/batch_rng.h"
#include "qnet/support/rng.h"

namespace qnet {

// The latent coordinates of (log, obs) as sweep moves, in scan (event id) order: an
// arrival move for every non-initial event whose arrival is unobserved, a final-departure
// move for every task-final event whose departure is unobserved. Shared by the sampler
// and the reference sweep so move eligibility is defined exactly once.
void CollectLatentMoves(const EventLog& log, const Observation& obs,
                        std::vector<SweepMove>& arrival_moves,
                        std::vector<SweepMove>& final_moves);

// The sweep's move list: arrival moves, then (optionally) final-departure moves.
std::vector<SweepMove> ConcatSweepMoves(std::span<const SweepMove> arrival_moves,
                                        std::span<const SweepMove> final_moves,
                                        bool include_finals);

// Refreshes one event's entry in a fused sufficient-statistics cache: the derived service
// time d_e - BeginService(e), stored per event id so the M-step can re-derive per-queue
// sums without walking the event structs. `rho` is rho(e), which the caller's geometry
// already holds. The expression is the same as EventLog::ServiceTime, so cache entries
// are bitwise equal to a fresh scan's terms.
inline void RefreshServiceCacheEntry(const EventLog& state, EventId e, EventId rho,
                                     std::span<double> cache) {
  const double arrival = state.ArrivalUnchecked(e);
  const double begin =
      rho == kNoEvent ? arrival : std::max(arrival, state.DepartureUnchecked(rho));
  cache[static_cast<std::size_t>(e)] = state.DepartureUnchecked(e) - begin;
}

// Writes a sampled move result back into the log and keeps the optional service cache
// coherent. An arrival move changes a_e and d_pi, so the affected service times are
// {e, pi, nu(pi)}; a final-departure move changes d_e, affecting {e, nu(e)}. All of these
// lie inside the move's footprint, so concurrent scatter of conflict-free moves never
// races on cache entries. Shared by RunBucket and RunBucketReference — the scatter is
// the one place move results touch the log. The neighbour ids come from `g` (the batched
// kernel passes the schedule's resolved geometry).
inline void ScatterMoveResult(EventLog& state, const SweepMove& move, const MoveGeometry& g,
                              double sampled, std::span<double> service_cache) {
  if (move.kind == MoveKind::kArrival) {
    state.SetArrivalUnchecked(move.event, sampled);
    state.SetDepartureUnchecked(g.pi, sampled);
    if (!service_cache.empty()) {
      RefreshServiceCacheEntry(state, move.event, g.rho, service_cache);
      RefreshServiceCacheEntry(state, g.pi, g.rho_pi, service_cache);
      if (g.nu_pi != kNoEvent && g.nu_pi != move.event) {
        RefreshServiceCacheEntry(state, g.nu_pi, /*rho=*/g.pi, service_cache);
      }
    }
  } else {
    state.SetDepartureUnchecked(move.event, sampled);
    if (!service_cache.empty()) {
      RefreshServiceCacheEntry(state, move.event, g.rho, service_cache);
      if (g.nu != kNoEvent) {
        RefreshServiceCacheEntry(state, g.nu, /*rho=*/move.event, service_cache);
      }
    }
  }
}

// The per-move form: resolve the geometry from the links, then the geometry scatter.
inline void ScatterMoveResult(EventLog& state, const SweepMove& move, double sampled,
                              std::span<double> service_cache) {
  const MoveGeometry g = move.kind == MoveKind::kArrival
                             ? state.ResolveArrivalGeometryUnchecked(move.event)
                             : state.ResolveFinalDepartureGeometryUnchecked(move.event);
  ScatterMoveResult(state, move, g, sampled, service_cache);
}

// Batched SoA kernel over one conflict-free bucket: the moves of a color class have
// pairwise disjoint footprints, so no gather depends on another move's scatter and
// the bucket can be processed gather-all / finalize-all / sample-all / scatter-all in
// fixed-width tiles. Per tile the transcendental work (one exp and one expm1 per segment)
// runs as two contiguous vmath sweeps (PiecewiseExpBatch::FinalizeAll) instead of being
// interleaved with gather/scatter control flow.
//
// Geometry: RunBucket takes each move's neighbour ids from the schedule
// (ShardedSweepScheduler resolves them once per Rebuild), so a sweep reads only times from
// the log. RunBucketReference keeps the per-move link walk (GatherArrivalMove /
// ScatterMoveResult resolve the geometry from the links at move time), which keeps it an
// independent oracle for a stale or mis-resolved schedule geometry as well as for the
// tile arithmetic.
//
// Stream protocol (a pure function of the schedule): the bucket owns `width` lanes, lane
// l seeded Rng(MixSeed(bucket_seed, l)); the move at bucket rank r draws from lane
// r % width, and every move — including degenerate-window moves, which discard them —
// consumes exactly two uniforms (segment pick, then inverse-CDF quantile). RunBucket and
// RunBucketReference therefore produce bit-identical states: the reference path walks the
// same lanes move-at-a-time through the scalar PiecewiseExpDensity (whose Finalize /
// SampleWith run the same vmath arithmetic), which is the correctness oracle pinned by
// tests/test_move_batch.cc.
class BatchedExponentialMoveKernel {
 public:
  static constexpr std::size_t kDefaultWidth = 32;

  // `width` is the tile width in moves (1 <= width <= kMaxBatchWidth); it is part of the
  // stream layout, so changing it changes the sampled values (not the distribution).
  explicit BatchedExponentialMoveKernel(std::span<const double> rates,
                                        std::size_t width = kDefaultWidth,
                                        std::span<double> service_cache = {});

  // Processes one conflict-free bucket in SIMD-width tiles. geometry[i] must be
  // moves[i]'s resolved geometry on `state`'s current links. `batch` is tile scratch:
  // its contents on entry never affect the result (every tile Clears it, and slots a
  // tile leaves dead self-neutralize), so one batch serves every bucket a thread runs.
  void RunBucket(EventLog& state, std::span<const SweepMove> moves,
                 std::span<const MoveGeometry> geometry, std::uint64_t bucket_seed,
                 PiecewiseExpBatch& batch) const;

  // Move-at-a-time reference consuming the identical lane streams; kept as the readable
  // specification of RunBucket and pinned bit-identical to it by tests, which sweep it
  // over a whole schedule through tests/support/reference_sweep.h.
  void RunBucketReference(EventLog& state, std::span<const SweepMove> moves,
                          std::uint64_t bucket_seed) const;

  std::size_t Width() const { return width_; }

 private:
  std::span<const double> rates_;
  std::span<double> service_cache_;
  std::size_t width_;
};

}  // namespace qnet

#endif  // QNET_INFER_MOVE_KERNEL_H_
