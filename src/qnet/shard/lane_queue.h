// Bounded single-producer/single-consumer queue connecting the fleet's router (ingest)
// thread to one lane worker.
//
// Items are a tagged union of "here is your next record", "close the current window
// (span decision)" and "end of stream". Tokens travel IN BAND with the records, so a
// lane's view of which records precede a window close is exactly the router's — lane
// processing is a pure function of the item sequence, never of timing.
//
// Records move through the queue by ownership, not by copy: PushMany SWAPS each record
// item's TaskRecord into its ring slot (the caller's item gets the slot's old record
// back — stale content, but its visit capacity) and PopMany swaps ring records into the
// consumer's targets the same way. The fleet's one deep copy is the router's
// copy-assignment into its batch slot; after that a record's visit vector only changes
// hands, and the capacity the consumer hands back circulates to the producer through
// the ring, so the steady-state hop allocates nothing and copies no visits. Producer
// and consumer move items in BATCHES (PushMany/PopMany) — one lock + one wake per
// batch, not per record — which keeps the hop cheap next to the fits. Only StEM lanes
// of a fleet with K > 1 run behind a queue; a single lane, and sampler-free lanes at
// any K, use none: the router calls them directly. Batching never reorders items, so
// results are bit-identical for any batch size. A full ring blocks the producer — that
// is the fleet's backpressure, and PushMany returns the seconds it spent blocked so the
// router can account it (FleetStats::router_blocked_seconds).
//
// CloseConsumer is the abnormal-exit valve: a lane worker that dies calls it so a
// blocked producer wakes up and discovers the fleet is unwinding instead of deadlocking.

#ifndef QNET_SHARD_LANE_QUEUE_H_
#define QNET_SHARD_LANE_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
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
  // kRecord: the end of the span open when the record was routed; kClose: the end of
  // the span open after the decision, or -infinity when another decision follows.
  double span_end = 0.0;
  WindowSpanTracker::SpanDecision close;  // kClose
};

class LaneQueue {
 public:
  explicit LaneQueue(std::size_t capacity) : ring_(capacity) {
    QNET_CHECK(capacity > 0, "lane queue capacity must be positive");
  }

  LaneQueue(const LaneQueue&) = delete;
  LaneQueue& operator=(const LaneQueue&) = delete;

  // Enqueues items[0..count) in order, blocking whenever the ring is full. A record
  // item's TaskRecord is swapped with its ring slot's, so items[at].record comes back
  // holding the slot's previous record (unspecified content, reusable capacity); token
  // items are copied and keep their record untouched. Returns the seconds spent blocked.
  // If the consumer side has been closed the remaining items are silently dropped — the
  // fleet is unwinding and will surface the lane's error.
  double PushMany(LaneItem* items, std::size_t count) {
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
        Hand(items[at++], ring_[head_]);
        head_ = Next(head_);
        ++size_;
      }
      peak_depth_ = std::max(peak_depth_, size_);
      not_empty_.notify_one();
    }
    return blocked;
  }

  // Enqueues a copy of one item: for close and finish tokens, which carry no record.
  double Push(LaneItem item) { return PushMany(&item, 1); }

  // Dequeues up to `max` items into out[0..returned), blocking while the ring is empty.
  // Record items are swapped out of the ring the same way PushMany swaps them in, so
  // the records out[] held go back to the producer as slot capacity; out grows once to
  // `max` and is never shrunk. The producer always terminates the stream with a kFinish
  // item, so consumers never wait forever on an orderly shutdown.
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
      Hand(ring_[tail_], out[at]);
      tail_ = Next(tail_);
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
  // Moves `from` into `to`: a record swaps its TaskRecord (capacity travels back to
  // `from`), a token copies its decision; both copy the span end.
  static void Hand(LaneItem& from, LaneItem& to) {
    to.kind = from.kind;
    to.span_end = from.span_end;
    if (from.kind == LaneItem::Kind::kRecord) {
      std::swap(to.record, from.record);
    } else {
      to.close = from.close;
    }
  }

  // The ring index after `index`: a compare, not a per-record division.
  std::size_t Next(std::size_t index) const {
    return index + 1 == ring_.size() ? 0 : index + 1;
  }

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
