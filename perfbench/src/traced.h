// The traced run: each workload's pipeline recomposed from the layers' public entry
// points, one call at a time on one thread, with a span around every call.
//
// The recomposition follows StreamingEstimator::Run (non-pipelined) and, for the fleet,
// ShardedStreamingEstimator::Run with its K lane workers run sequentially — the same
// tracker, record selection, log build, fit chain, fits, merger and hooks, so its
// estimate sequence equals the untraced run's bit for bit (checked on every run).
//
// Spans are kept in memory and aggregated per (stage, window): a per-window call is one
// span, and the per-task calls of a window (replay pull, tracker push, route) fold into
// one span record with their call count, so memory stays proportional to windows, not
// tasks. Self time is a span's duration minus its children's. The per-task calls run
// back to back, so each starts at the clock reading that ended the previous one: one
// clock read per call instead of two, and no untraced gap between them (each per-task
// figure therefore includes the cost of one clock read).

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qnet/stream/streaming_estimator.h"
#include "workload.h"

namespace perfbench {

enum class Stage : std::size_t {
  kPass,       // root: the whole recomposed pass
  kReplay,     // harness: LapReplay::Next
  kSpanPush,   // stream: WindowSpanTracker::Push + record buffering
  kBuild,      // stream: TakeDecisionRecords + WindowLogBuilder (+ lane queue counts)
  kMeanField,  // infer: WindowFitChain::PlanFit + MeanFieldEstimator::Fit
  kStem,       // infer: StemEstimator::Run on the scheduler cache
  kRoute,      // shard: LaneRouter::Route
  kMerge,      // shard: LaneMerger ExpectWindow / Post / Pop (pooling)
  kEmit,       // stream: fit-chain completion + estimate sequence bookkeeping
  kDetect,     // detect: ChangeMonitor::Observe
  kForecast,   // scenario: WindowForecaster::Forecast
  kCount,
};
inline constexpr std::size_t kStages = static_cast<std::size_t>(Stage::kCount);
// A traced pass whose layer spans cover less of its wall than this has an untraced hole
// and fails its output check.
inline constexpr double kMinCoverage = 0.9;
const char* StageName(Stage stage);

struct SpanRecord {
  Stage stage = Stage::kPass;
  Stage parent = Stage::kPass;
  std::size_t window = 0;  // window whose emission ended the interval (pass: all)
  std::uint64_t calls = 0;
  std::uint64_t first_start_ns = 0;
  std::uint64_t last_end_ns = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool Enabled() const { return enabled_; }
  // `chained`: start at the previous span's end instead of reading the clock (only for
  // a call that immediately follows its traced sibling).
  void Begin(Stage stage, bool chained = false);
  void End();
  // Moves the spans accumulated since the previous call into the log under `window`.
  void CloseWindow(std::size_t window);

  const std::vector<SpanRecord>& Log() const { return log_; }
  // Totals over the whole log, by stage.
  std::uint64_t SelfNs(Stage stage) const;
  std::uint64_t TotalNs(Stage stage) const;
  // Share of the root pass's time covered by layer spans: the layers' self times summed
  // over every stage but kPass, over TotalNs(kPass). The rest is untraced harness code.
  double Coverage() const;

 private:
  struct Open {
    Stage stage;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  bool enabled_;
  std::array<Open, 8> stack_{};
  std::size_t depth_ = 0;
  std::uint64_t last_end_ns_ = 0;
  std::array<SpanRecord, kStages> pending_{};
  std::vector<SpanRecord> log_;
};

class ScopedStage {
 public:
  ScopedStage(Tracer& tracer, Stage stage, bool chained = false) : tracer_(tracer) {
    if (tracer_.Enabled()) {
      tracer_.Begin(stage, chained);
    }
  }
  ~ScopedStage() {
    if (tracer_.Enabled()) {
      tracer_.End();
    }
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  Tracer& tracer_;
};

struct RecomposedPass {
  std::vector<qnet::WindowEstimate> estimates;
  double wall_s = 0.0;
  std::size_t tasks = 0;
  std::size_t alerts = 0;
  std::size_t stem_iterations = 0;
  std::size_t stem_moves = 0;  // latent arrivals x sweeps, summed over fits
  std::size_t peak_buffered_tasks = 0;
};

RecomposedPass RecomposePass(const Workload& workload, const Trace& trace, std::uint64_t seed,
                             Tracer& tracer);

// Writes the span log as CSV (one line per aggregated span).
bool WriteSpans(const std::string& path, const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
