#include "qnet/telemetry/timeline.h"

#include <memory>
#include <mutex>

#include "qnet/support/check.h"

namespace qnet {

namespace {

struct StageInfo {
  const char* name;
  int level;
};

constexpr StageInfo kStageInfo[kNumSpanStages] = {
    {"window_assemble", 1}, {"stem_fit", 1},      {"meanfield_fit", 1},
    {"lane_merge", 1},      {"emit", 1},          {"lane_blocked", 1},
    {"scenario_cell", 1},   {"des_run", 1},       {"detect_observe", 1},
    {"sweep_color", 2},     {"sweep_tile", 3},
};

// One ring per live thread that records spans. Rings are heap blocks owned by a
// process-wide table so CollectSpans can walk them after worker threads exit. A thread
// takes a ring on its first span (a free one if any, else a new one — the only
// telemetry allocation) and gives it back to the free list when it exits, so the table
// grows with the peak number of concurrently recording threads, not with every thread
// ever started. A reused ring keeps its tid and its spans: the next owner appends.
struct SpanRing {
  int tid = 0;
  std::atomic<std::uint64_t> head{0};  // monotonically increasing write index
  SpanRecord records[Timeline::kRingCapacity];
};

struct RingTable {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanRing>> rings;
  std::vector<SpanRing*> free;  // rings of exited threads, reused LIFO
};

RingTable& Rings() {
  static RingTable* table = new RingTable();  // leaked: outlives exiting threads
  return *table;
}

SpanRing* AcquireRing() {
  RingTable& table = Rings();
  std::lock_guard<std::mutex> lock(table.mu);
  if (!table.free.empty()) {
    SpanRing* ring = table.free.back();
    table.free.pop_back();
    return ring;
  }
  auto ring = std::make_unique<SpanRing>();
  ring->tid = static_cast<int>(table.rings.size());
  SpanRing* raw = ring.get();
  table.rings.push_back(std::move(ring));
  return raw;
}

// The calling thread's ring; its destructor (thread exit) returns the ring to the table.
struct ThreadRingHolder {
  SpanRing* ring = AcquireRing();
  ~ThreadRingHolder() {
    RingTable& table = Rings();
    std::lock_guard<std::mutex> lock(table.mu);
    table.free.push_back(ring);
  }
};

// Unused when QNET_TELEMETRY=0 compiles RecordSpan to a no-op.
[[maybe_unused]] SpanRing* ThreadRing() {
  thread_local ThreadRingHolder holder;
  return holder.ring;
}

}  // namespace

const char* SpanStageName(SpanStage stage) {
  const auto i = static_cast<std::size_t>(stage);
  QNET_DCHECK(i < kNumSpanStages);
  return kStageInfo[i].name;
}

int SpanStageLevel(SpanStage stage) {
  const auto i = static_cast<std::size_t>(stage);
  QNET_DCHECK(i < kNumSpanStages);
  return kStageInfo[i].level;
}

std::atomic<int> Timeline::level_{1};

void Timeline::SetLevel(int level) { level_.store(level, std::memory_order_relaxed); }

int Timeline::Level() { return level_.load(std::memory_order_relaxed); }

Histogram* StageHistogram(SpanStage stage) {
  struct Table {
    Histogram* h[kNumSpanStages];
  };
  static const Table table = [] {
    Table t;
    MetricRegistry& r = MetricRegistry::Global();
    for (std::size_t i = 0; i < kNumSpanStages; ++i) {
      t.h[i] = r.AddHistogram(std::string("qnet_stage_") + kStageInfo[i].name + "_ns");
    }
    return t;
  }();
  return table.h[static_cast<std::size_t>(stage)];
}

void Timeline::RecordSpan(SpanStage stage, std::uint64_t start_nanos,
                          std::uint64_t end_nanos) {
#if QNET_TELEMETRY
  SpanRing* ring = ThreadRing();
  const std::uint64_t slot = ring->head.load(std::memory_order_relaxed);
  SpanRecord& rec = ring->records[slot & (kRingCapacity - 1)];
  rec.start_nanos = start_nanos;
  rec.end_nanos = end_nanos;
  rec.stage = stage;
  // Release so CollectSpans (acquire on head) sees fully-written records.
  ring->head.store(slot + 1, std::memory_order_release);
  StageHistogram(stage)->Record(end_nanos - start_nanos);
#else
  (void)stage;
  (void)start_nanos;
  (void)end_nanos;
#endif
}

std::vector<Timeline::ThreadSpans> Timeline::CollectSpans() {
  RingTable& table = Rings();
  std::lock_guard<std::mutex> lock(table.mu);
  std::vector<ThreadSpans> out;
  out.reserve(table.rings.size());
  for (const auto& ring : table.rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head == 0) {
      continue;
    }
    ThreadSpans ts;
    ts.tid = ring->tid;
    const std::uint64_t count = head < kRingCapacity ? head : kRingCapacity;
    ts.spans.reserve(count);
    for (std::uint64_t i = head - count; i < head; ++i) {
      ts.spans.push_back(ring->records[i & (kRingCapacity - 1)]);
    }
    out.push_back(std::move(ts));
  }
  return out;
}

std::size_t Timeline::RingCount() {
  RingTable& table = Rings();
  std::lock_guard<std::mutex> lock(table.mu);
  return table.rings.size();
}

void Timeline::ClearSpans() {
  RingTable& table = Rings();
  std::lock_guard<std::mutex> lock(table.mu);
  for (const auto& ring : table.rings) {
    ring->head.store(0, std::memory_order_release);
  }
}

}  // namespace qnet
