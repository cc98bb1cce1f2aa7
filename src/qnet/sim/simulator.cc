#include "qnet/sim/simulator.h"

#include "qnet/sim/sim_scratch.h"
#include "qnet/support/check.h"

namespace qnet {
namespace {

// Shared per-thread arena for the allocating convenience entry points below: repeated
// same-shaped calls only pay the EventLog's own (fresh-object) allocations, not the route
// / visit-time / heap churn. Callers that want the full zero-allocation warm path use a
// SimScratch + EventLog they own (see sim_scratch.h).
SimScratch& ThreadLocalSimScratch() {
  thread_local SimScratch scratch;
  return scratch;
}

EventLog ScratchLog(const QueueingNetwork& net, const SimScratch& scratch) {
  EventLog log(net.NumQueues());
  ScratchToEventLog(scratch, net.NumQueues(), log);
  return log;
}

}  // namespace

EventLog Simulate(const QueueingNetwork& net, const std::vector<double>& entry_times,
                  Rng& rng, const SimOptions& options) {
  SimScratch& scratch = ThreadLocalSimScratch();
  scratch.entry_times.assign(entry_times.begin(), entry_times.end());
  SimulateIntoScratch(net, scratch, rng, options);
  return ScratchLog(net, scratch);
}

EventLog SimulateWithRoutes(const QueueingNetwork& net, const std::vector<double>& entry_times,
                            const std::vector<std::vector<RouteStep>>& routes, Rng& rng,
                            const SimOptions& options) {
  QNET_CHECK(entry_times.size() == routes.size(), "one route per task required");
  // The arena's own checks of these are debug-only, so the caller's input is checked
  // here, before it is staged.
  SimScratch& scratch = ThreadLocalSimScratch();
  scratch.entry_times.assign(entry_times.begin(), entry_times.end());
  scratch.route_steps.clear();
  scratch.route_offsets.assign(1, 0);
  for (std::size_t k = 0; k < entry_times.size(); ++k) {
    QNET_CHECK(entry_times[k] > 0.0, "entry times must be positive");
    if (k > 0) {
      QNET_CHECK(entry_times[k] >= entry_times[k - 1], "entry times must be nondecreasing");
    }
    QNET_CHECK(!routes[k].empty(), "task ", k, " has an empty route");
    scratch.route_steps.insert(scratch.route_steps.end(), routes[k].begin(), routes[k].end());
    scratch.route_offsets.push_back(scratch.route_steps.size());
  }
  RunStagedDes(net, scratch, rng, options);
  return ScratchLog(net, scratch);
}

EventLog SimulateWorkload(const QueueingNetwork& net, const ArrivalProcess& workload,
                          Rng& rng, const SimOptions& options) {
  SimScratch& scratch = ThreadLocalSimScratch();
  workload.GenerateInto(scratch.entry_times, rng);
  SimulateIntoScratch(net, scratch, rng, options);
  return ScratchLog(net, scratch);
}

}  // namespace qnet
