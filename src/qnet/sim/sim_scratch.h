// Allocation-free DES core: a reusable simulation arena (SimScratch) plus staged
// run/convert entry points.
//
// This is the one batch DES core: Simulate, SimulateWorkload and SimulateWithRoutes
// (simulator.h) stage their inputs into a thread-local SimScratch and run it. The arena
// is flat SoA storage — one contiguous RouteStep buffer with per-task offsets (CSR
// layout), parallel begin/departure arrays, and a recycled heap vector — so repeated
// simulations of same-shaped workloads allocate nothing once the buffers are warm. The
// scenario engine leans on this for its (cell x draw) loop; tests/test_alloc_free.cc
// pins the zero-allocation contract.
//
// Draw-order contract: for the same inputs and Rng state, the staged pipeline
//   GenerateInto -> SampleRoutesIntoScratch -> RunStagedDes -> ScratchToEventLog
// consumes the RNG draw-for-draw like SimulateWorkload: arrivals, then one route per
// task in task order, then one service time per step in DES pop order. The pop order is
// the strict total order (time, task, step) — no ties are possible — realized by merging
// the sorted entry list against a recycled push_heap/pop_heap continuation heap.
// tests/test_simulator.cc pins the resulting logs to hex-float goldens recorded from an
// all-arrivals std::priority_queue simulator, and the convenience wrappers to each
// other.

#ifndef QNET_SIM_SIM_SCRATCH_H_
#define QNET_SIM_SIM_SCRATCH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/model/fsm.h"
#include "qnet/model/network.h"
#include "qnet/sim/simulator.h"
#include "qnet/sim/workload.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"

namespace qnet {

// Reusable arena for one simulation. All buffers keep their capacity across runs; the
// staged entry points below clear and refill them. Plain aggregate on purpose: drivers
// (scenario engine, benches, tests) stage inputs and read outputs directly.
struct SimScratch {
  // --- Staged inputs ------------------------------------------------------------------
  // System entry times (strictly positive, nondecreasing), one per task.
  std::vector<double> entry_times;
  // All tasks' route steps concatenated (CSR layout with route_offsets).
  std::vector<RouteStep> route_steps;
  // route_offsets[k]..route_offsets[k+1] bound task k's steps; size NumTasks()+1, [0]==0.
  std::vector<std::size_t> route_offsets;

  // --- Outputs (parallel to route_steps; written by RunStagedDes*) ---------------------
  // Service begin time max(a_e, d_rho(e)) of each step.
  std::vector<double> step_begin;
  // Departure time of each step.
  std::vector<double> step_departure;
  // Per-queue sum of waits (begin - arrival), accumulated in per-queue arrival order —
  // the same float-addition order as summing EventLog::WaitTime over QueueOrder(q).
  std::vector<double> queue_wait_sum;
  // Per-queue sum of busy time (departure - begin), accumulated in per-queue (task, step)
  // order — the same float-addition order as EventLog::PerQueueServiceSum (which walks
  // events in id order) restricted to real queues.
  std::vector<double> queue_busy_sum;

  // --- Recycled internals --------------------------------------------------------------
  std::vector<DesArrival> heap;
  std::vector<double> frontier;

  // Drops staged inputs and outputs, keeping every buffer's capacity.
  void Clear() {
    entry_times.clear();
    route_steps.clear();
    route_offsets.clear();
    step_begin.clear();
    step_departure.clear();
    queue_wait_sum.clear();
    queue_busy_sum.clear();
    heap.clear();
  }

  int NumTasks() const { return static_cast<int>(entry_times.size()); }

  std::span<const RouteStep> Route(int task) const {
    const auto k = static_cast<std::size_t>(task);
    QNET_DCHECK(k + 1 < route_offsets.size(), "bad task id ", task);
    return {route_steps.data() + route_offsets[k], route_offsets[k + 1] - route_offsets[k]};
  }

  // Arrival time of step j of task k: the entry time for j == 0, else the previous
  // step's departure (stored bitwise-identically to the heap entry the DES popped).
  double StepArrival(int task, std::size_t j) const {
    const auto k = static_cast<std::size_t>(task);
    if (j == 0) {
      return entry_times[k];
    }
    return step_departure[route_offsets[k] + j - 1];
  }

  // System exit time of task k (departure of its last step).
  double ExitTime(int task) const {
    const auto k = static_cast<std::size_t>(task);
    QNET_DCHECK(route_offsets[k + 1] > route_offsets[k], "task ", task, " has no steps");
    return step_departure[route_offsets[k + 1] - 1];
  }
};

// Samples one route per staged entry time from the FSM into the scratch CSR buffers,
// consuming the RNG exactly like per-task Fsm::SampleRoute calls.
void SampleRoutesIntoScratch(const Fsm& fsm, SimScratch& scratch, Rng& rng);

// Runs the DES over staged entry times + routes, sampling service times from the
// network's distributions in heap-pop order (the batch simulator's draw order).
void RunStagedDes(const QueueingNetwork& net, SimScratch& scratch, Rng& rng,
                  const SimOptions& options = {});

// As RunStagedDes for the all-exponential case: queue q's service rate is
// pooled_rates[q] (index 0 unused — route steps never visit the arrival queue).
// Consumes the RNG exactly like Exponential(pooled_rates[q]).Sample(rng).
void RunStagedDesExponential(std::span<const double> pooled_rates, SimScratch& scratch,
                             Rng& rng, const FaultSchedule* faults = nullptr);

// Staged equivalent of Simulate(): entry times must already be staged; samples routes,
// then runs the DES. RNG-order-identical to Simulate for the same entry times.
void SimulateIntoScratch(const QueueingNetwork& net, SimScratch& scratch, Rng& rng,
                         const SimOptions& options = {});

// Staged equivalent of SimulateWorkload(): generates entry times into the scratch, then
// SimulateIntoScratch. RNG-order-identical to SimulateWorkload.
void SimulateWorkloadIntoScratch(const QueueingNetwork& net, const ArrivalProcess& workload,
                                 SimScratch& scratch, Rng& rng,
                                 const SimOptions& options = {});

// Materializes a completed scratch run as an EventLog (Reset + rebuild, so a warm log
// allocates nothing). The convenience wrappers in simulator.h return exactly this log.
void ScratchToEventLog(const SimScratch& scratch, int num_queues, EventLog& log);

}  // namespace qnet

#endif  // QNET_SIM_SIM_SCRATCH_H_
