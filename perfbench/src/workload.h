// Workloads, seeded trace generation, ground truth, and the closed-loop replay stream.
//
// Every workload runs the three-tier {1, 2, 4} network with per-server service rate
// 1.6 lambda (front tier at rho ~ 0.6), 30 s windows, 20% of tasks observed, and a 2x
// flash-crowd arrival burst over the middle fifth of its stored trace ("lap"). The lap
// is generated once per run from the workload seed with the library's own simulator
// (LiveSimStream + a FaultSchedule arrival script), before any timing starts. A system
// instance consumes `pass_laps` laps through LapReplay, which hands over the next record
// only when the system pulls it (a closed loop with one client) and shifts each lap's
// times by the lap span, so the harness holds one lap however long a pass runs.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qnet/model/network.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/stream/task_record.h"

namespace perfbench {

inline constexpr double kWindowSeconds = 30.0;
inline constexpr double kObservedFraction = 0.2;
inline constexpr double kServiceFactor = 1.6;  // per-server mu = 1.6 lambda
inline constexpr double kBurstFactor = 2.0;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

enum class SystemKind {
  kPlain,  // StreamingEstimator, kWarmStart + early stop
  kFleet,  // ShardedStreamingEstimator, K = 2, kMeanFieldOnly + bias correction
};

struct Workload {
  std::string name;
  double arrival_rate = 10.0;      // base lambda; the burst doubles it
  std::size_t lap_windows = 40;    // windows per stored lap (a multiple of 5)
  std::size_t pass_laps = 1;       // laps one system instance consumes
  std::size_t warmup_windows = 8;  // windows emitted before steady-state timing starts
  SystemKind system = SystemKind::kPlain;
  bool forecaster = false;         // WindowForecaster chained after the ChangeMonitor
  // Sanity envelope on the accuracy medians (svc rate, wait, arrival rate): a run whose
  // estimates score worse than this fails its output check.
  double max_svc_rate_rel_err = 0.5;
  double max_wait_rel_err = 1.0;
  double max_arrival_rate_rel_err = 0.3;

  std::size_t PassWindows() const { return lap_windows * pass_laps; }
  bool BurstWindow(std::size_t lap_window) const {
    return lap_window >= 2 * lap_windows / 5 && lap_window < 3 * lap_windows / 5;
  }
};

const std::vector<Workload>& Workloads();
// Null for an unknown name.
const Workload* FindWorkload(const std::string& name);

qnet::QueueingNetwork MakeNetwork(const Workload& workload);
std::vector<double> InitRates(const Workload& workload, int num_queues);
qnet::StreamingEstimatorOptions MakeStreamOptions(const Workload& workload);
qnet::ShardedStreamingOptions MakeFleetOptions(const Workload& workload);

// One lap of records in entry order, stored flat, plus its per-window ground truth.
struct Trace {
  int num_queues = 0;
  double lap_span = 0.0;
  std::vector<double> entry;
  std::vector<std::uint32_t> visit_begin;  // record i's visits: [visit_begin[i], [i + 1])
  std::vector<qnet::TaskVisit> visits;
  // Lap-local window j holds records [window_begin[j], window_begin[j + 1]).
  std::vector<std::size_t> window_begin;
  // Ground truth per lap-local window: the scripted arrival rate in effect and, per
  // queue, the mean true wait (service start - arrival) of the window's visits, taken
  // from the simulator's full records (NaN where the queue saw no visit).
  std::vector<double> true_arrival_rate;
  std::vector<std::vector<double>> true_wait;
  std::vector<double> true_service_rate;  // generating mu per queue (index 0 unused)

  std::size_t NumRecords() const { return entry.size(); }
  std::size_t WindowTasks(std::size_t lap_window) const {
    return window_begin[lap_window + 1] - window_begin[lap_window];
  }
};

Trace GenerateTrace(const Workload& workload, std::uint64_t seed);

// Closed-loop replay of `laps` laps. When `close_ns` is set, the pull of the record that
// closes window w (the first record at or past its end, or the end of the stream for
// the last window) stamps close_ns[w] — one clock read per window, none per record.
class LapReplay : public qnet::TraceStream {
 public:
  LapReplay(const Trace& trace, std::size_t laps, std::vector<std::uint64_t>* close_ns);

  bool Next(qnet::TaskRecord& out) override;
  int NumQueues() const override { return trace_.num_queues; }

  std::size_t Pulled() const { return pulled_; }

 private:
  void StampClose(std::size_t window);

  const Trace& trace_;
  std::size_t laps_;
  std::vector<std::uint64_t>* close_ns_;
  std::size_t lap_ = 0;
  std::size_t index_ = 0;
  std::size_t next_window_ = 1;  // lap-local window whose first record closes the previous
  std::size_t pulled_ = 0;
  double shift_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
