// Scoped span tracing into per-thread fixed-capacity ring buffers.
//
// A span is one timed interval of a named pipeline stage on one thread. Spans are
// captured by ScopedSpan (RAII) into a thread-local SpanRing — a fixed-capacity ring
// that overwrites its oldest entries, so capture is allocation-free and unbounded runs
// keep the most recent history. Every span also feeds a per-stage latency Histogram in
// the global MetricRegistry ("qnet_stage_<name>_ns"), which is what the stage-latency
// tables and Prometheus exposition read.
//
// Stage taxonomy and detail levels (Timeline::SetLevel, default 1):
//   level 1 — pipeline lifecycle: window assemble, StEM fit, mean-field fit,
//             lane merge, emit, lane blocked, scenario cell, DES run, detect observe.
//   level 2 — sweep structure: one span per sweep color class.
//   level 3 — batched move-kernel tile (per-tile; very hot, off by default).
// A stage above the current level costs one relaxed atomic load and no clock read —
// that is how the ≤5% sweep-overhead gate holds with instrumentation compiled in.
//
// Determinism firewall: spans read TimelineClock and write telemetry state only.
// Nothing in this header exposes a value that sampling or estimation code consumes;
// building with -DQNET_TELEMETRY=0 compiles ScopedSpan to an empty struct and the
// capture paths to no-ops, and every bit-equality test passes either way.

#ifndef QNET_TELEMETRY_TIMELINE_H_
#define QNET_TELEMETRY_TIMELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qnet/support/stopwatch.h"
#include "qnet/telemetry/metrics.h"

namespace qnet {

enum class SpanStage : std::uint8_t {
  kWindowAssemble = 0,  // materialize a closed window's records for fitting
  kStemFit,             // StemEstimator::Run
  kMeanFieldFit,        // MeanFieldEstimator::Fit
  kLaneMerge,           // LaneMerger pooling lane results into a fleet estimate
  kEmit,                // delivering a WindowEstimate to the caller
  kLaneBlocked,         // fleet caller waiting on the fit pool's in-flight bound
  kScenarioCell,        // ScenarioEngine evaluating one grid cell
  kDesRun,              // one DES arena run
  kDetectObserve,       // ChangeMonitor consuming one WindowEstimate
  kSweepColor,          // one color class of a sweep (one batched-kernel bucket)
  kSweepTile,           // one batched move-kernel tile
  kNumStages,
};

inline constexpr std::size_t kNumSpanStages =
    static_cast<std::size_t>(SpanStage::kNumStages);

// Stable short name, also the histogram suffix ("qnet_stage_<name>_ns").
const char* SpanStageName(SpanStage stage);

// Detail level at which a stage starts recording (see file comment).
int SpanStageLevel(SpanStage stage);

// One captured interval. Timestamps are TimelineClock nanos.
struct SpanRecord {
  std::uint64_t start_nanos = 0;
  std::uint64_t end_nanos = 0;
  SpanStage stage = SpanStage::kWindowAssemble;
};

class Timeline {
 public:
  // Spans per thread-local ring. Power of two so the wrap is a mask.
  static constexpr std::size_t kRingCapacity = 4096;

  // Runtime detail gate; 0 disables all span capture. Thread-safe (relaxed).
  static void SetLevel(int level);
  static int Level();

  static bool StageEnabled(SpanStage stage) {
#if QNET_TELEMETRY
    return SpanStageLevel(stage) <= level_.load(std::memory_order_relaxed);
#else
    (void)stage;
    return false;
#endif
  }

  // Appends to the calling thread's ring (taking one on first use — a ring freed by an
  // exited thread, else a new one: the one-time setup allocation happens then, never on
  // later captures). The ring returns to the table's free list when the thread exits.
  static void RecordSpan(SpanStage stage, std::uint64_t start_nanos,
                         std::uint64_t end_nanos);

  // Snapshot of every ring, oldest-first per ring. `tid` is a dense telemetry-local
  // ring index (creation order), not an OS id; threads that ran one after another may
  // share a ring, and so a tid.
  struct ThreadSpans {
    int tid = 0;
    std::vector<SpanRecord> spans;
  };
  static std::vector<ThreadSpans> CollectSpans();

  // Rings ever created — the peak number of threads that held a ring at once (a thread
  // holds one from its first span until it exits).
  static std::size_t RingCount();

  // Clears every ring (test isolation / between monitor runs).
  static void ClearSpans();

 private:
  static std::atomic<int> level_;
};

// RAII span. Construction checks the level gate before touching the clock, so a
// disabled stage costs one relaxed load. The per-stage histogram handle is looked up
// once per stage per process (function-local static bundle in timeline.cc).
#if QNET_TELEMETRY
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanStage stage)
      : stage_(stage), armed_(Timeline::StageEnabled(stage)) {
    if (armed_) {
      start_ = TimelineClock::NowNanos();
    }
  }
  ~ScopedSpan() {
    if (armed_) {
      Timeline::RecordSpan(stage_, start_, TimelineClock::NowNanos());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanStage stage_;
  bool armed_;
  std::uint64_t start_ = 0;
};
#else
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanStage) {}
};
#endif

// Per-stage latency histograms, registered in the global MetricRegistry as
// "qnet_stage_<name>_ns". Exposed so exporters and tests can reach them by stage.
Histogram* StageHistogram(SpanStage stage);

}  // namespace qnet

#endif  // QNET_TELEMETRY_TIMELINE_H_
