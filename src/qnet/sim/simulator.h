// Discrete-event simulator for open networks of single-server FIFO queues with FSM routing.
//
// Because routing is workload-independent (a task moves to its next queue the instant it
// departs — no blocking, no balking), the network can be simulated by processing arrivals in
// global time order while tracking each queue's last scheduled departure:
//     d_e = s_e + max(a_e, d_rho(e)).
// This is the exact generative process of the paper's eq. (1) and produces the ground-truth
// event logs for the Section 5 experiments, on the one DES core (sim/sim_scratch.h).

#ifndef QNET_SIM_SIMULATOR_H_
#define QNET_SIM_SIMULATOR_H_

#include <cstddef>
#include <tuple>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/model/network.h"
#include "qnet/sim/fault.h"
#include "qnet/sim/workload.h"
#include "qnet/support/rng.h"

namespace qnet {

struct SimOptions {
  // Optional service-time fault schedule.
  const FaultSchedule* faults = nullptr;
};

// One pending (task, step) arrival of the DES core (ServeDesEvent, sim/sim_scratch.h),
// which serves batch runs and the live stream (stream/live_stream.h) alike. Ordered by
// (time, task, step): global arrival order with a deterministic tie-break.
struct DesArrival {
  double time = 0.0;
  int task = -1;
  std::size_t step = 0;

  bool operator>(const DesArrival& other) const {
    return std::tie(time, task, step) > std::tie(other.time, other.task, other.step);
  }
};

// Simulates the network for the given system entry times (strictly positive, nondecreasing).
// Routes are sampled from the network's FSM.
EventLog Simulate(const QueueingNetwork& net, const std::vector<double>& entry_times,
                  Rng& rng, const SimOptions& options = {});

// As Simulate, but with caller-fixed routes (routes[k] is task k's (state, queue) route).
// Used by tests and by workloads that need deterministic or skewed routing. Stages the
// entries and routes into the thread's SimScratch arena and runs RunStagedDes, so it
// draws service times exactly like SimulateWorkload does after sampling the same routes.
// Entries must be positive and nondecreasing, with one non-empty route per task.
EventLog SimulateWithRoutes(const QueueingNetwork& net, const std::vector<double>& entry_times,
                            const std::vector<std::vector<RouteStep>>& routes, Rng& rng,
                            const SimOptions& options = {});

// Convenience: generate entry times from the arrival process, then simulate.
EventLog SimulateWorkload(const QueueingNetwork& net, const ArrivalProcess& workload,
                          Rng& rng, const SimOptions& options = {});

}  // namespace qnet

#endif  // QNET_SIM_SIMULATOR_H_
