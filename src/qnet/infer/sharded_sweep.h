// Colored sharded sweep scheduler: intra-chain parallelism for one Gibbs chain.
//
// The single-site moves of a sweep touch only bounded footprints of the event graph
// (EventLog::ComputeMoveFootprint), so moves with disjoint footprints commute. The
// scheduler colors the sweep's conflict graph once per trace (model/conflict.h), then
// executes each sweep as: color classes in sequence, and within a class the moves split
// round-robin across S logical shards that run in parallel.
//
// Threading: workers are created once at construction and parked on a condition variable
// between sweeps (a sweep is ~100 microseconds of work — spawning threads per sweep would
// cost as much as the sweep itself). The caller participates as worker 0; a reusable
// std::barrier separates color classes. With threads == 1 there are no workers at all and
// Run is a plain sequential loop.
//
// Determinism contract (mirrors the PR-1 multi-chain contract):
//  * bucket (color c, shard s) of a sweep with seed w consumes its own xoshiro stream
//    seeded MixSeed(MixSeed(w, c), s) — a pure function of (w, c, s), never of timing;
//  * the move -> (color, shard) assignment is frozen at Rebuild (round-robin by rank
//    within the color class), so which stream samples which move never changes;
//  * threads only decide which CPU runs a bucket; results are bit-identical for every
//    thread count, including 1. After the pool is warm, Run performs zero heap
//    allocations for any thread count (the per-move hot-path contract of
//    tests/test_alloc_free.cc), and a same-shaped Rebuild reuses every buffer's capacity
//    (the streaming estimators re-schedule every window).
// Changing `shards` (or the move order) legitimately changes the stream layout and hence
// the sampled values; it does not change the stationary distribution.
//
// Execution granularity: Run applies one move at a time from the bucket's stream;
// RunBuckets hands each non-empty bucket (its move slice plus its stream seed) to the
// caller in one piece, which is what the batched SoA kernel needs to process a bucket in
// SIMD-width tiles. Both walk the identical schedule, so the choice of entry point never
// changes which moves share a bucket.
//
// Move geometry: Rebuild already walks every move's links to build its footprint, and it
// keeps what that walk resolved — one MoveGeometry per scheduled move, in a buffer
// parallel to the schedule. A bucket therefore arrives with its moves' neighbour ids, and
// the batched kernel's sweeps read only times. The geometry is a function of the links,
// so a schedule is only valid for the link structure it was rebuilt on: whoever changes
// the links (route Metropolis-Hastings through GibbsSampler::MutableState) must Rebuild
// before the next sweep, even on one thread.

#ifndef QNET_INFER_SHARDED_SWEEP_H_
#define QNET_INFER_SHARDED_SWEEP_H_

#include <barrier>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "qnet/model/conflict.h"
#include "qnet/model/event.h"
#include "qnet/support/function_ref.h"
#include "qnet/support/rng.h"

namespace qnet {

struct ShardedSweepOptions {
  // Logical shard count per color class. Part of the determinism contract: results depend
  // on `shards` but never on `threads`.
  std::size_t shards = 4;
  // Worker threads; 0 = hardware concurrency, always clamped to `shards`. Pure wall-clock
  // knob.
  std::size_t threads = 0;
};

// One non-empty bucket of a sweep, as RunBuckets hands it out.
struct SweepBucket {
  std::span<const SweepMove> moves;
  // geometry[i] is moves[i]'s neighbour ids, resolved at Rebuild.
  std::span<const MoveGeometry> geometry;
  // The bucket's stream seed, MixSeed(MixSeed(sweep_seed, color), shard).
  std::uint64_t seed = 0;
  // Index (< NumThreads()) of the participant running the bucket. Lets the callback use
  // per-thread scratch; it never decides which stream samples which move.
  std::size_t participant = 0;
};

class ShardedSweepScheduler {
 public:
  // Resolves shard/thread counts and launches the worker pool; the schedule is empty
  // until Rebuild. Constructing once and Rebuilding per trace is how long-lived callers
  // (streaming windows) amortize both the thread launch and the schedule buffers.
  explicit ShardedSweepScheduler(const ShardedSweepOptions& options = {});
  // Convenience: construct and build the schedule in one step.
  ShardedSweepScheduler(const EventLog& log, std::span<const SweepMove> moves,
                        const ShardedSweepOptions& options = {});
  ~ShardedSweepScheduler();

  ShardedSweepScheduler(const ShardedSweepScheduler&) = delete;
  ShardedSweepScheduler& operator=(const ShardedSweepScheduler&) = delete;

  // Colors `moves` against `log`'s link structure and freezes the (color, shard)
  // partition. The coloring reads links only — never times — so the schedule stays valid
  // while a sampler mutates times in place. Must not be called while a sweep is running.
  // Reuses all internal buffers; a same-shaped rebuild allocates nothing once warm.
  void Rebuild(const EventLog& log, std::span<const SweepMove> moves);

  // Executes one sweep, one move at a time. `apply` must be safe to call concurrently on
  // moves with disjoint footprints (MoveKernel::Apply is). `sweep_seed` must change every
  // sweep — the sweep drivers draw it from their chain stream (rng.NextU64()) so sweep
  // seeds form a deterministic sequence per chain.
  void Run(FunctionRef<void(const SweepMove&, Rng&)> apply, std::uint64_t sweep_seed);

  // Executes one sweep at bucket granularity: `run_bucket` receives each non-empty
  // bucket (moves, their geometry, its stream seed and the running participant) and must
  // consume the bucket's stream deterministically (the batched kernel's lane protocol).
  // Same schedule, same concurrency rules, and the same barrier structure as Run.
  void RunBuckets(FunctionRef<void(const SweepBucket&)> run_bucket, std::uint64_t sweep_seed);

  std::size_t NumMoves() const { return schedule_.size(); }
  std::size_t NumColors() const { return num_colors_; }
  std::size_t NumShards() const { return shards_; }
  std::size_t NumThreads() const { return threads_; }

  // Moves of bucket (color, shard) in execution order — diagnostics and tests.
  std::span<const SweepMove> Bucket(std::size_t color, std::size_t shard) const;
  // Their geometry, parallel to Bucket(color, shard).
  std::span<const MoveGeometry> BucketGeometry(std::size_t color, std::size_t shard) const;

 private:
  void RunBucket(std::size_t color, std::size_t shard, std::size_t participant,
                 FunctionRef<void(const SweepBucket&)> run_bucket,
                 std::uint64_t sweep_seed) const;
  // One sweep's worth of work for participant t: its shards of every color class, with
  // the class barrier after each. Exceptions are parked in errors_[t] and the thread
  // keeps arriving at the remaining barriers so the other participants never deadlock.
  void RunParticipant(std::size_t t);
  void WorkerLoop(std::size_t t);

  std::size_t shards_;
  std::size_t threads_;
  std::size_t num_colors_ = 0;
  std::vector<SweepMove> schedule_;          // moves grouped by (color, shard)
  std::vector<MoveGeometry> geometry_;       // parallel to schedule_
  std::vector<std::size_t> bucket_offsets_;  // num_colors_ * shards_ + 1 entries

  // Rebuild scratch, kept as members so per-trace rescheduling reuses capacity.
  ColoringScratch coloring_scratch_;
  MoveColoring coloring_;
  std::vector<std::size_t> rank_in_class_;
  std::vector<std::size_t> bucket_of_;
  std::vector<std::size_t> cursor_;

  // Persistent pool (threads_ > 1 only). RunBuckets publishes {run_bucket_, sweep_seed_}
  // and bumps generation_ under mu_; parked workers wake, run RunParticipant, and park
  // again. The caller runs RunParticipant(0) itself, then blocks on done_cv_ until every
  // worker has checked back in. The explicit check-in (rather than the final class
  // barrier) is load-bearing: a schedule can have zero color classes, and Rebuild may
  // change the class count between sweeps, so the caller must not return — and the next
  // Rebuild/RunBuckets must not start — while a late-waking worker could still read this
  // generation's {run_bucket_, num_colors_}.
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t inflight_workers_ = 0;
  bool stop_ = false;
  const FunctionRef<void(const SweepBucket&)>* run_bucket_ = nullptr;
  std::uint64_t sweep_seed_ = 0;
  std::optional<std::barrier<>> class_barrier_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace qnet

#endif  // QNET_INFER_SHARDED_SWEEP_H_
