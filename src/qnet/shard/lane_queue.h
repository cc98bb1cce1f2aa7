// Bounded single-producer/single-consumer queue connecting the fleet's router (ingest)
// thread to one lane worker.
//
// Items are a tagged union of "here is your next record", "close the current window
// (span decision)" and "end of stream". Tokens travel IN BAND with the records, so a
// lane's view of which records precede a window close is exactly the router's — lane
// processing is a pure function of the item sequence, never of timing.
//
// The ring is fixed-capacity and slots are reused by copy-assignment (a TaskRecord's
// visit vector keeps its capacity across wraps, as do the consumer's pop targets), so
// the steady-state queue hop itself allocates nothing. Producer and consumer move items
// in BATCHES (PushMany/PopMany) — one lock + one wake per batch, not per record — which
// keeps the hop cheap next to the fits. (A single lane without pipelining uses no queue
// at all: the router calls it directly.) Batching never reorders items, so results are
// bit-identical for any batch size. A full ring blocks the producer — that is the
// fleet's backpressure, and PushMany returns the seconds it spent blocked so the router
// can account it (FleetStats::router_blocked_seconds).
//
// CloseConsumer is the abnormal-exit valve: a lane worker that dies calls it so a
// blocked producer wakes up and discovers the fleet is unwinding instead of deadlocking.

#ifndef QNET_SHARD_LANE_QUEUE_H_
#define QNET_SHARD_LANE_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

#include "qnet/stream/task_record.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"
#include "qnet/support/stopwatch.h"
#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {

struct LaneItem {
  enum class Kind { kRecord, kClose, kFinish };
  Kind kind = Kind::kRecord;
  TaskRecord record;                      // kRecord
  WindowSpanTracker::SpanDecision close;  // kClose
};

class LaneQueue {
 public:
  explicit LaneQueue(std::size_t capacity) : ring_(capacity) {
    QNET_CHECK(capacity > 0, "lane queue capacity must be positive");
  }

  LaneQueue(const LaneQueue&) = delete;
  LaneQueue& operator=(const LaneQueue&) = delete;

  // Enqueues copies of items[0..count) in order (slot capacity is reused), blocking
  // whenever the ring is full. Returns the seconds spent blocked. If the consumer side
  // has been closed the remaining items are silently dropped — the fleet is unwinding
  // and will surface the lane's error.
  double PushMany(const LaneItem* items, std::size_t count) {
    ScopedSpan push_span(SpanStage::kLanePush);
    ShardCounters::Get().queue_push_batches->Increment();
    double blocked = 0.0;
    std::unique_lock<std::mutex> lock(mu_);
    std::size_t at = 0;
    while (at < count) {
      if (size_ == ring_.size() && !consumer_closed_) {
        ScopedSpan blocked_span(SpanStage::kLaneBlocked);
        Stopwatch waited;
        not_full_.wait(lock, [&] { return size_ < ring_.size() || consumer_closed_; });
        blocked += waited.ElapsedSeconds();
      }
      if (consumer_closed_) {
        return blocked;
      }
      while (at < count && size_ < ring_.size()) {
        ring_[head_] = items[at++];
        head_ = (head_ + 1) % ring_.size();
        ++size_;
      }
      peak_depth_ = std::max(peak_depth_, size_);
      not_empty_.notify_one();
    }
    return blocked;
  }

  double Push(const LaneItem& item) { return PushMany(&item, 1); }

  // Dequeues up to `max` items into out[0..returned) (copy-assignment: element capacity
  // is reused; out grows once to `max` and is never shrunk), blocking while the ring is
  // empty. The producer always terminates the stream with a kFinish item, so consumers
  // never wait forever on an orderly shutdown.
  std::size_t PopMany(std::vector<LaneItem>& out, std::size_t max) {
    QNET_CHECK(max > 0, "PopMany needs a positive batch size");
    ScopedSpan pop_span(SpanStage::kLanePop);
    ShardCounters::Get().queue_pop_batches->Increment();
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return size_ > 0; });
    const std::size_t count = std::min(max, size_);
    if (out.size() < count) {
      out.resize(count);
    }
    for (std::size_t at = 0; at < count; ++at) {
      out[at] = ring_[tail_];
      tail_ = (tail_ + 1) % ring_.size();
    }
    size_ -= count;
    lock.unlock();
    not_full_.notify_one();
    return count;
  }

  // Consumer died: wake and release a blocked producer; subsequent pushes are dropped.
  void CloseConsumer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      consumer_closed_ = true;
    }
    not_full_.notify_one();
  }

  std::size_t PeakDepth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_depth_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<LaneItem> ring_;
  std::size_t head_ = 0;  // next push slot
  std::size_t tail_ = 0;  // next pop slot
  std::size_t size_ = 0;
  std::size_t peak_depth_ = 0;
  bool consumer_closed_ = false;
};

}  // namespace qnet

#endif  // QNET_SHARD_LANE_QUEUE_H_
