// Discrete-event simulator for open networks of single-server FIFO queues with FSM routing.
//
// Because routing is workload-independent (a task moves to its next queue the instant it
// departs — no blocking, no balking), the network can be simulated by processing arrivals in
// global time order while tracking each queue's last scheduled departure:
//     d_e = s_e + max(a_e, d_rho(e)).
// This is the exact generative process of the paper's eq. (1) and produces the ground-truth
// event logs for the Section 5 experiments.

#ifndef QNET_SIM_SIMULATOR_H_
#define QNET_SIM_SIMULATOR_H_

#include <algorithm>
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

// One pending (task, step) arrival in the DES heap. Min-heap by (time, task, step):
// global arrival order with a deterministic tie-break. Shared by the batch DES core
// (sim/sim_scratch.h) and the live streaming adapter (stream/live_stream.h) so both
// process events in the same order.
struct DesArrival {
  double time = 0.0;
  int task = -1;
  std::size_t step = 0;

  bool operator>(const DesArrival& other) const {
    return std::tie(time, task, step) > std::tie(other.time, other.task, other.step);
  }
};

// The DES physics step of the live streaming adapter (stream/live_stream.h): one
// per-queue last-departure frontier advanced through d_e = s_e + max(a_e, d_rho(e)) with
// fault scaling. The batch DES core (RunDesCore in sim/sim_scratch.cc) applies the same
// recursion to its flat frontier; the two deliberately differ in RNG draw *order*, so a
// behavioral divergence between them would be invisible to bit-equality tests.
class QueueFrontier {
 public:
  explicit QueueFrontier(int num_queues)
      : last_departure_(static_cast<std::size_t>(num_queues), 0.0) {}

  // Processes one arrival at `queue`: samples its service time (scaled by `faults` if
  // given), advances the queue's frontier, and returns the departure time.
  double ProcessArrival(const QueueingNetwork& net, int queue, double arrival, Rng& rng,
                        const FaultSchedule* faults) {
    const auto q = static_cast<std::size_t>(queue);
    const double begin = std::max(arrival, last_departure_[q]);
    double service = net.Service(queue).Sample(rng);
    if (faults != nullptr) {
      service *= faults->ServiceFactor(queue, begin);
    }
    const double departure = begin + service;
    last_departure_[q] = departure;
    return departure;
  }

 private:
  std::vector<double> last_departure_;
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
