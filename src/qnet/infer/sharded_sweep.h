// Colored sweep schedule: the batching layout every Gibbs sweep runs on.
//
// The single-site moves of a sweep touch only bounded footprints of the event graph
// (EventLog::ComputeMoveFootprint), so moves with disjoint footprints commute. The
// scheduler colors the sweep's conflict graph once per trace (model/conflict.h), then
// executes each sweep on the caller's thread as one systematic scan: color classes in
// sequence, each class handed out as one conflict-free bucket. Conflict-freedom is what
// lets the batched kernel process a bucket in SIMD-width tiles — gather a tile, sample
// it, scatter it — without one move's write reaching another move's read in that tile.
//
// Determinism contract:
//  * the bucket of color c in a sweep with seed w consumes its own xoshiro stream seeded
//    MixSeed(MixSeed(w, c), 0) — a pure function of (w, c);
//  * the move -> color assignment and the in-class order (the input order) are frozen at
//    Rebuild, so which stream samples which move never changes;
//  * RunBuckets performs zero heap allocations (the per-move hot-path contract of
//    tests/test_alloc_free.cc), and a same-shaped Rebuild reuses every buffer's capacity
//    (the streaming estimators re-schedule every window).
// Changing the move order legitimately changes the stream layout and hence the sampled
// values; it does not change the stationary distribution.
//
// Move geometry: Rebuild already walks every move's links to build its footprint, and it
// keeps what that walk resolved — one MoveGeometry per scheduled move, in a buffer
// parallel to the schedule. A bucket therefore arrives with its moves' neighbour ids, and
// the batched kernel's sweeps read only times. The geometry is a function of the links,
// so a schedule is only valid for the link structure it was rebuilt on: whoever changes
// the links must Rebuild before the next sweep (GibbsSampler does so after any change
// through MutableState).

#ifndef QNET_INFER_SHARDED_SWEEP_H_
#define QNET_INFER_SHARDED_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "qnet/model/conflict.h"
#include "qnet/model/event.h"
#include "qnet/support/function_ref.h"

namespace qnet {

// The schedule has one bucket per color class, run on the caller's thread. These fields
// remain so callers that spell that schedule out keep compiling; the scheduler rejects
// any other value.
struct ShardedSweepOptions {
  std::size_t shards = 1;
  std::size_t threads = 1;
};

// One bucket of a sweep (one color class), as RunBuckets hands it out.
struct SweepBucket {
  std::span<const SweepMove> moves;
  // geometry[i] is moves[i]'s neighbour ids, resolved at Rebuild.
  std::span<const MoveGeometry> geometry;
  // The bucket's stream seed, MixSeed(MixSeed(sweep_seed, color), 0).
  std::uint64_t seed = 0;
};

class ShardedSweepScheduler {
 public:
  // An empty schedule until Rebuild. Constructing once and Rebuilding per trace is how
  // long-lived callers (streaming windows) amortize the schedule buffers. CHECK-fails
  // unless options asks for one shard on one thread.
  explicit ShardedSweepScheduler(const ShardedSweepOptions& options = {});
  // Convenience: construct and build the schedule in one step.
  ShardedSweepScheduler(const EventLog& log, std::span<const SweepMove> moves);

  // Colors `moves` against `log`'s link structure and freezes the color partition. The
  // coloring reads links only — never times — so the schedule stays valid while a
  // sampler mutates times in place. Reuses all internal buffers; a same-shaped rebuild
  // allocates nothing once warm.
  void Rebuild(const EventLog& log, std::span<const SweepMove> moves);

  // Executes one sweep: `run_bucket` receives each color class in color order
  // (moves, their geometry, its stream seed) and must consume the bucket's stream
  // deterministically (the batched kernel's lane protocol). `sweep_seed` must change
  // every sweep — GibbsSampler draws it from its chain stream (rng.NextU64()) so sweep
  // seeds form a deterministic sequence per chain.
  void RunBuckets(FunctionRef<void(const SweepBucket&)> run_bucket,
                  std::uint64_t sweep_seed) const;

  std::size_t NumMoves() const { return schedule_.size(); }
  std::size_t NumColors() const { return num_colors_; }

  // Moves of color class `color` in execution order — diagnostics and tests.
  std::span<const SweepMove> Bucket(std::size_t color) const;
  // Their geometry, parallel to Bucket(color).
  std::span<const MoveGeometry> BucketGeometry(std::size_t color) const;

 private:
  std::size_t num_colors_ = 0;
  std::vector<SweepMove> schedule_;          // moves grouped by color
  std::vector<MoveGeometry> geometry_;       // parallel to schedule_
  std::vector<std::size_t> bucket_offsets_;  // num_colors_ + 1 entries once built

  // Rebuild scratch, kept as members so per-trace rescheduling reuses capacity.
  ColoringScratch coloring_scratch_;
  MoveColoring coloring_;
  std::vector<std::size_t> cursor_;
};

}  // namespace qnet

#endif  // QNET_INFER_SHARDED_SWEEP_H_
