// The benchmark's two run modes over one seeded workload.
//
// End-to-end (tracing off): repeated passes of the system under test, each a fresh
// system over the same generated input, until `seconds` have passed (at least
// kMinPasses). Every figure is a per-pass value (throughput, set-up time, latency
// percentiles over the pass's steady-state windows) and the run reports its median over
// passes, so a host slowdown that lasts less than half the run does not move it.
//
// On a shared host the speed of a core also wanders in phases that outlast a run. So a
// fixed harness-owned loop of scalar libm log and exp (the host-speed reference, no
// library code) is timed before and after every pass on the same CPU (the process is
// pinned to one), and the pass's timings are scaled to the speed at which that loop
// takes kNominalReferenceMs: throughput times (reference ms / nominal), durations divided
// by it. The notes print the unscaled medians beside the scaled ones.
//
// Traced: repeated cycles of (untraced system pass, untraced recomposition, traced
// recomposition) until `seconds` have passed (at least kMinCycles). Per-layer figures
// come from the traced recomposition's span self times, the waiting-side shard figures
// from the threaded system pass's FleetStats, and the tracing overhead from the two
// recompositions.
//
// Both modes run the output checks on every pass; a failed check counts its windows in
// `failed` and makes the run incorrect.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "workload.h"

namespace perfbench {

inline constexpr std::size_t kMinPasses = 3;
inline constexpr std::size_t kMinCycles = 2;
inline constexpr double kNominalReferenceMs = 4.0;

struct RunResult {
  bool correct = false;
  std::size_t attempted = 0;  // windows closed, over every pass
  std::size_t failed = 0;     // windows that failed an output check
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines printed before the result
};

RunResult RunEndToEnd(const Workload& workload, const Trace& trace, std::uint64_t seed,
                      double seconds);
// `spans_path` (may be empty) receives the first traced pass's span log as CSV.
RunResult RunTraced(const Workload& workload, const Trace& trace, std::uint64_t seed,
                    double seconds, const std::string& spans_path);

// Harness floor: ns per record to drain one pass of the replay with no system attached
// (median of several drains).
double ReplayNsPerTask(const Workload& workload, const Trace& trace);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
