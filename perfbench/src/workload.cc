#include "workload.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qnet/model/builders.h"
#include "qnet/sim/fault.h"
#include "qnet/stream/live_stream.h"
#include "qnet/support/check.h"

namespace perfbench {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // The production single-lane monitor: ~300 tasks per window, StEM sweeps plus a
      // fixed per-window forecast cost. Also the single-threaded baseline.
      {.name = "monitor-k1",
       .arrival_rate = 10.0,
       .lap_windows = 100,
       .pass_laps = 1,
       .warmup_windows = 8,
       .system = SystemKind::kPlain,
       .forecaster = true,
       .max_svc_rate_rel_err = 0.25,
       .max_wait_rel_err = 0.4,
       .max_arrival_rate_rel_err = 0.12},
      // The sampler-free overload mode on the fleet: ~3k tasks per window through
      // ingest, window build, routing, lane queues and merge.
      {.name = "fleet-meanfield-k2",
       .arrival_rate = 100.0,
       .lap_windows = 20,
       .pass_laps = 10,
       .warmup_windows = 8,
       .system = SystemKind::kFleet,
       .forecaster = false,
       .max_svc_rate_rel_err = 0.12,
       .max_wait_rel_err = 0.2,
       .max_arrival_rate_rel_err = 0.04},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

qnet::QueueingNetwork MakeNetwork(const Workload& workload) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = workload.arrival_rate;
  config.service_rate = kServiceFactor * workload.arrival_rate;
  return qnet::MakeThreeTierNetwork(config);
}

std::vector<double> InitRates(const Workload& workload, int num_queues) {
  std::vector<double> init(static_cast<std::size_t>(num_queues), 1.0);
  init[0] = workload.arrival_rate;
  return init;
}

qnet::StreamingEstimatorOptions MakeStreamOptions(const Workload& workload) {
  qnet::StreamingEstimatorOptions options;
  options.window.window_duration = kWindowSeconds;
  options.window_local_arrival_rate = true;
  options.stem.iterations = 60;
  options.stem.burn_in = 20;
  options.stem.wait_sweeps = 20;
  if (workload.system == SystemKind::kFleet) {
    options.fast_path = qnet::FastPathMode::kMeanFieldOnly;
  } else {
    options.fast_path = qnet::FastPathMode::kWarmStart;
    options.stem.convergence_tol = 0.05;
  }
  return options;
}

qnet::ShardedStreamingOptions MakeFleetOptions(const Workload& workload) {
  qnet::ShardedStreamingOptions options;
  options.lanes = 2;
  options.cross_lane_bias_correction = true;
  // With the library defaults (1024 slots, batches of 32) the router and the lanes wake
  // each other every 32 records; batches of 256 into 8192 slots hand off 8x less often,
  // so the three threads sharing the benchmark's one CPU switch 8x less. Both are
  // documented as wall-clock knobs that leave every estimate bit-identical.
  options.lane_queue_capacity = 8192;
  options.router_batch = 256;
  options.stream = MakeStreamOptions(workload);
  return options;
}

Trace GenerateTrace(const Workload& workload, std::uint64_t seed) {
  QNET_CHECK(workload.lap_windows % 5 == 0, "lap_windows must be a multiple of 5");
  const std::size_t windows = workload.lap_windows;
  const qnet::QueueingNetwork net = MakeNetwork(workload);
  Trace trace;
  trace.num_queues = net.NumQueues();
  trace.lap_span = static_cast<double>(windows) * kWindowSeconds;

  qnet::FaultSchedule faults;
  faults.AddArrivalScale(static_cast<double>(2 * windows / 5) * kWindowSeconds,
                         static_cast<double>(3 * windows / 5) * kWindowSeconds,
                         kBurstFactor);
  qnet::LiveSimOptions options;
  options.horizon = trace.lap_span;
  options.arrival_rate = workload.arrival_rate;
  options.faults = &faults;
  options.observed_fraction = kObservedFraction;
  qnet::LiveSimStream stream(net, options, seed);

  trace.visit_begin.push_back(0);
  qnet::TaskRecord record;
  while (stream.Next(record)) {
    QNET_CHECK(record.entry_time < trace.lap_span, "entry past the lap span");
    QNET_CHECK(trace.entry.empty() || record.entry_time >= trace.entry.back(),
               "simulator records out of entry order");
    trace.entry.push_back(record.entry_time);
    trace.visits.insert(trace.visits.end(), record.visits.begin(), record.visits.end());
    trace.visit_begin.push_back(static_cast<std::uint32_t>(trace.visits.size()));
  }

  trace.window_begin.resize(windows + 1);
  for (std::size_t j = 0; j <= windows; ++j) {
    const double start = static_cast<double>(j) * kWindowSeconds;
    trace.window_begin[j] = static_cast<std::size_t>(
        std::lower_bound(trace.entry.begin(), trace.entry.end(), start) -
        trace.entry.begin());
  }
  trace.window_begin[windows] = trace.NumRecords();

  trace.true_arrival_rate.resize(windows);
  for (std::size_t j = 0; j < windows; ++j) {
    trace.true_arrival_rate[j] =
        workload.arrival_rate * (workload.BurstWindow(j) ? kBurstFactor : 1.0);
  }
  trace.true_service_rate.assign(static_cast<std::size_t>(trace.num_queues),
                                 kServiceFactor * workload.arrival_rate);

  // True waits: every queue is a FIFO single server, so a visit starts service at
  // max(its arrival, the departure of the visit that arrived before it).
  struct Visit {
    double arrival;
    double departure;
    std::size_t window;
  };
  const auto queues = static_cast<std::size_t>(trace.num_queues);
  std::vector<std::vector<Visit>> by_queue(queues);
  for (std::size_t j = 0; j < windows; ++j) {
    for (std::size_t i = trace.window_begin[j]; i < trace.window_begin[j + 1]; ++i) {
      for (std::uint32_t v = trace.visit_begin[i]; v < trace.visit_begin[i + 1]; ++v) {
        const qnet::TaskVisit& visit = trace.visits[v];
        by_queue[static_cast<std::size_t>(visit.queue)].push_back(
            {visit.arrival, visit.departure, j});
      }
    }
  }
  std::vector<std::vector<double>> sum(windows, std::vector<double>(queues, 0.0));
  std::vector<std::vector<std::size_t>> count(windows, std::vector<std::size_t>(queues, 0));
  for (std::size_t q = 1; q < queues; ++q) {
    std::vector<Visit>& visits = by_queue[q];
    std::stable_sort(visits.begin(), visits.end(),
                     [](const Visit& a, const Visit& b) { return a.arrival < b.arrival; });
    double previous_departure = -std::numeric_limits<double>::infinity();
    for (const Visit& visit : visits) {
      sum[visit.window][q] += std::max(visit.arrival, previous_departure) - visit.arrival;
      ++count[visit.window][q];
      previous_departure = visit.departure;
    }
  }
  trace.true_wait.assign(windows,
                         std::vector<double>(queues, std::numeric_limits<double>::quiet_NaN()));
  for (std::size_t j = 0; j < windows; ++j) {
    for (std::size_t q = 1; q < queues; ++q) {
      if (count[j][q] > 0) {
        trace.true_wait[j][q] = sum[j][q] / static_cast<double>(count[j][q]);
      }
    }
  }
  return trace;
}

LapReplay::LapReplay(const Trace& trace, std::size_t laps, std::vector<std::uint64_t>* close_ns)
    : trace_(trace), laps_(laps), close_ns_(close_ns) {
  QNET_CHECK(trace.NumRecords() > 0 && laps > 0, "empty replay");
}

void LapReplay::StampClose(std::size_t window) {
  if (close_ns_ != nullptr && window < close_ns_->size()) {
    (*close_ns_)[window] = NowNs();
  }
}

bool LapReplay::Next(qnet::TaskRecord& out) {
  if (lap_ >= laps_) {
    return false;
  }
  const std::size_t lap_windows = trace_.window_begin.size() - 1;
  if (index_ == trace_.NumRecords()) {
    ++lap_;
    index_ = 0;
    next_window_ = 1;
    shift_ = static_cast<double>(lap_) * trace_.lap_span;
    // The first record of the next lap (or the end of the stream) closes the last
    // window of this lap.
    StampClose(lap_ * lap_windows - 1);
    if (lap_ == laps_) {
      return false;
    }
  }
  while (next_window_ < lap_windows && index_ == trace_.window_begin[next_window_]) {
    StampClose(lap_ * lap_windows + next_window_ - 1);
    ++next_window_;
  }
  out.entry_time = trace_.entry[index_] + shift_;
  out.visits.assign(trace_.visits.begin() + trace_.visit_begin[index_],
                    trace_.visits.begin() + trace_.visit_begin[index_ + 1]);
  if (shift_ != 0.0) {
    for (qnet::TaskVisit& visit : out.visits) {
      visit.arrival += shift_;
      visit.departure += shift_;
    }
  }
  ++index_;
  ++pulled_;
  return true;
}

}  // namespace perfbench
