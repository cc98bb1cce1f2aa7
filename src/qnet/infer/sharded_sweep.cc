#include "qnet/infer/sharded_sweep.h"

#include "qnet/support/check.h"
#include "qnet/support/rng.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

ShardedSweepScheduler::ShardedSweepScheduler(const ShardedSweepOptions& options) {
  QNET_CHECK(options.shards == 1 && options.threads == 1,
             "the colored sweep runs one shard on the caller's thread; got shards=",
             options.shards, " threads=", options.threads);
}

ShardedSweepScheduler::ShardedSweepScheduler(const EventLog& log,
                                             std::span<const SweepMove> moves)
    : ShardedSweepScheduler() {
  Rebuild(log, moves);
}

void ShardedSweepScheduler::Rebuild(const EventLog& log, std::span<const SweepMove> moves) {
  ColorSweepMovesInto(log, moves, coloring_scratch_, coloring_);
  num_colors_ = static_cast<std::size_t>(coloring_.num_colors);

  // Counting sort of the moves by color; within a class moves keep their input order, so
  // the schedule is a pure function of the move list.
  bucket_offsets_.assign(num_colors_ + 1, 0);
  for (const int color : coloring_.color) {
    ++bucket_offsets_[static_cast<std::size_t>(color) + 1];
  }
  for (std::size_t c = 0; c < num_colors_; ++c) {
    bucket_offsets_[c + 1] += bucket_offsets_[c];
  }
  schedule_.resize(moves.size());
  geometry_.resize(moves.size());
  cursor_.assign(bucket_offsets_.begin(), bucket_offsets_.end() - 1);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const std::size_t slot = cursor_[static_cast<std::size_t>(coloring_.color[i])]++;
    schedule_[slot] = moves[i];
    geometry_[slot] = coloring_scratch_.geometry[i];
  }
}

std::span<const SweepMove> ShardedSweepScheduler::Bucket(std::size_t color) const {
  QNET_CHECK(color < num_colors_, "bucket out of range: color=", color);
  return {schedule_.data() + bucket_offsets_[color],
          bucket_offsets_[color + 1] - bucket_offsets_[color]};
}

std::span<const MoveGeometry> ShardedSweepScheduler::BucketGeometry(std::size_t color) const {
  const std::span<const SweepMove> moves = Bucket(color);
  return {geometry_.data() + (moves.data() - schedule_.data()), moves.size()};
}

void ShardedSweepScheduler::RunBuckets(FunctionRef<void(const SweepBucket&)> run_bucket,
                                       std::uint64_t sweep_seed) const {
  SweepCounters::Get().sweeps->Increment();
  SweepCounters::Get().moves->Add(schedule_.size());
  // First-fit coloring opens a class only for a move, so no class is empty.
  for (std::size_t c = 0; c < num_colors_; ++c) {
    const std::size_t begin = bucket_offsets_[c];
    const std::size_t end = bucket_offsets_[c + 1];
    ScopedSpan color_span(SpanStage::kSweepColor);
    run_bucket(SweepBucket{{schedule_.data() + begin, end - begin},
                           {geometry_.data() + begin, end - begin},
                           MixSeed(MixSeed(sweep_seed, c), 0)});
  }
}

}  // namespace qnet
