#include "qnet/infer/sharded_sweep.h"

#include <algorithm>

#include "qnet/support/check.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

ShardedSweepScheduler::ShardedSweepScheduler(const ShardedSweepOptions& options)
    : shards_(std::max<std::size_t>(1, options.shards)) {
  std::size_t threads = options.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  threads_ = std::max<std::size_t>(1, std::min(threads, shards_));

  bucket_offsets_.assign(1, 0);

  if (threads_ > 1) {
    class_barrier_.emplace(static_cast<std::ptrdiff_t>(threads_));
    errors_.assign(threads_, nullptr);
    workers_.reserve(threads_ - 1);
    for (std::size_t t = 1; t < threads_; ++t) {
      workers_.emplace_back([this, t] { WorkerLoop(t); });
    }
  }
}

ShardedSweepScheduler::ShardedSweepScheduler(const EventLog& log,
                                             std::span<const SweepMove> moves,
                                             const ShardedSweepOptions& options)
    : ShardedSweepScheduler(options) {
  Rebuild(log, moves);
}

void ShardedSweepScheduler::Rebuild(const EventLog& log, std::span<const SweepMove> moves) {
  ColorSweepMovesInto(log, moves, coloring_scratch_, coloring_);
  num_colors_ = static_cast<std::size_t>(coloring_.num_colors);

  // Counting sort of the moves into (color, shard) buckets; within a bucket moves keep
  // their class-rank order, so the schedule is a pure function of (moves, shards).
  const std::size_t buckets = num_colors_ * shards_;
  bucket_offsets_.assign(buckets + 1, 0);
  rank_in_class_.assign(num_colors_, 0);
  bucket_of_.resize(moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const auto c = static_cast<std::size_t>(coloring_.color[i]);
    const std::size_t s = rank_in_class_[c]++ % shards_;
    bucket_of_[i] = c * shards_ + s;
    ++bucket_offsets_[bucket_of_[i] + 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    bucket_offsets_[b + 1] += bucket_offsets_[b];
  }
  schedule_.resize(moves.size());
  geometry_.resize(moves.size());
  cursor_.assign(bucket_offsets_.begin(), bucket_offsets_.end() - 1);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const std::size_t slot = cursor_[bucket_of_[i]]++;
    schedule_[slot] = moves[i];
    geometry_[slot] = coloring_scratch_.geometry[i];
  }
}

ShardedSweepScheduler::~ShardedSweepScheduler() {
  if (!workers_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
}

std::span<const SweepMove> ShardedSweepScheduler::Bucket(std::size_t color,
                                                         std::size_t shard) const {
  QNET_CHECK(color < num_colors_ && shard < shards_, "bucket out of range: color=", color,
             " shard=", shard);
  const std::size_t b = color * shards_ + shard;
  return {schedule_.data() + bucket_offsets_[b], bucket_offsets_[b + 1] - bucket_offsets_[b]};
}

std::span<const MoveGeometry> ShardedSweepScheduler::BucketGeometry(std::size_t color,
                                                                    std::size_t shard) const {
  const std::span<const SweepMove> moves = Bucket(color, shard);
  return {geometry_.data() + (moves.data() - schedule_.data()), moves.size()};
}

void ShardedSweepScheduler::Run(FunctionRef<void(const SweepMove&, Rng&)> apply,
                                std::uint64_t sweep_seed) {
  // Per-move execution is the bucket-granular loop with the bucket's stream threaded
  // through its moves in order — the historical semantics, bit for bit.
  const auto per_move = [&apply](const SweepBucket& bucket) {
    Rng rng(bucket.seed);
    for (const SweepMove& move : bucket.moves) {
      apply(move, rng);
    }
  };
  RunBuckets(FunctionRef<void(const SweepBucket&)>(per_move), sweep_seed);
}

void ShardedSweepScheduler::RunBuckets(FunctionRef<void(const SweepBucket&)> run_bucket,
                                       std::uint64_t sweep_seed) {
  SweepCounters::Get().sweeps->Increment();
  SweepCounters::Get().moves->Add(schedule_.size());
  if (threads_ <= 1) {
    // Sequential, allocation-free loop — no pool, no barrier.
    for (std::size_t c = 0; c < num_colors_; ++c) {
      ScopedSpan color_span(SpanStage::kSweepColor);
      for (std::size_t s = 0; s < shards_; ++s) {
        RunBucket(c, s, /*participant=*/0, run_bucket, sweep_seed);
      }
    }
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    run_bucket_ = &run_bucket;
    sweep_seed_ = sweep_seed;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr());
    inflight_workers_ = threads_ - 1;
    ++generation_;
  }
  cv_.notify_all();
  RunParticipant(0);
  {
    // Wait for every worker's check-in, not just the last class barrier: with zero color
    // classes there is no barrier at all, and a worker that wakes after this sweep ends
    // must never observe a retired run_bucket_ or a Rebuilt class count.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return inflight_workers_ == 0; });
    run_bucket_ = nullptr;
  }
  for (const std::exception_ptr& error : errors_) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

void ShardedSweepScheduler::RunParticipant(std::size_t t) {
  for (std::size_t c = 0; c < num_colors_; ++c) {
    if (!errors_[t]) {
      try {
        // Per-participant share of the color class; the span ends before the class
        // barrier, so barrier wait shows up as the gap between color spans in a trace.
        ScopedSpan color_span(SpanStage::kSweepColor);
        for (std::size_t s = t; s < shards_; s += threads_) {
          RunBucket(c, s, t, *run_bucket_, sweep_seed_);
        }
      } catch (...) {
        errors_[t] = std::current_exception();
      }
    }
    class_barrier_->arrive_and_wait();
  }
}

void ShardedSweepScheduler::WorkerLoop(std::size_t t) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
    }
    RunParticipant(t);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--inflight_workers_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

void ShardedSweepScheduler::RunBucket(std::size_t color, std::size_t shard,
                                      std::size_t participant,
                                      FunctionRef<void(const SweepBucket&)> run_bucket,
                                      std::uint64_t sweep_seed) const {
  const std::size_t b = color * shards_ + shard;
  const std::size_t begin = bucket_offsets_[b];
  const std::size_t end = bucket_offsets_[b + 1];
  if (begin == end) {
    return;
  }
  ScopedSpan bucket_span(SpanStage::kSweepBucket);
  run_bucket(SweepBucket{{schedule_.data() + begin, end - begin},
                         {geometry_.data() + begin, end - begin},
                         MixSeed(MixSeed(sweep_seed, color), shard),
                         participant});
}

}  // namespace qnet
