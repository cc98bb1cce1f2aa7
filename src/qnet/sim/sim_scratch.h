// Allocation-free DES core: a reusable simulation arena (SimScratch), the one event loop
// that runs on it (ServeDesEvent), and staged run/convert entry points.
//
// This is the one DES core, batch and live: Simulate, SimulateWorkload and
// SimulateWithRoutes (simulator.h) stage their inputs into a thread-local SimScratch and
// run it to the end, and LiveSimStream (stream/live_stream.h) stages tasks through the
// loop's refill hook as the simulation reaches them. The arena is flat SoA storage — one
// contiguous RouteStep buffer with per-task offsets (CSR layout), parallel
// begin/departure arrays, and a recycled heap vector — so repeated simulations of
// same-shaped workloads allocate nothing once the buffers are warm;
// tests/test_alloc_free.cc pins the zero-allocation contract.
//
// Draw-order contract: for the same inputs and Rng state, the staged pipeline
//   GenerateInto -> SampleRoutesIntoScratch -> RunStagedDes -> ScratchToEventLog
// consumes the RNG draw-for-draw like SimulateWorkload: arrivals, then one route per
// task in task order, then one service time per step in DES pop order. The pop order is
// the strict total order (time, task, step) — no ties are possible — realized by merging
// the sorted entry list against a recycled push_heap/pop_heap continuation heap.
// tests/test_simulator.cc pins the resulting logs to hex-float goldens recorded from a
// simulator whose heap held every arrival, and the convenience wrappers to each other.

#ifndef QNET_SIM_SIM_SCRATCH_H_
#define QNET_SIM_SIM_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
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

  // --- Event-loop state (kept between ServeDesEvent calls) ----------------------------
  // Pending continuation events (step >= 1), a min-heap under std::greater.
  std::vector<DesArrival> heap;
  // Per-queue departure of the last step served there: d_rho(e) for the next arrival.
  std::vector<double> frontier;
  // Entry cursor: tasks [0, next_entry) have started their first step.
  std::size_t next_entry = 0;

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
    next_entry = 0;
  }

  // Drops the rows of the first `count` tasks, which must all be served, and renumbers
  // the rest from 0 — heap events and the entry cursor included. Keeps every capacity.
  void DropTasks(std::size_t count);

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

// Resets the event-loop state (frontiers, heap, entry cursor, per-queue sums) for a run
// over `num_queues` queues, keeping the staged inputs.
void BeginDes(int num_queues, SimScratch& scratch);

// The DES event loop, one event per call. First refill(earliest) gets the time of the
// earliest pending event (first unstarted entry or heap top; +infinity if none) and may
// stage more tasks: entries no earlier than the last one, routes in the CSR buffers,
// step_begin/step_departure grown to match. Then the earliest pending event is served:
// begin = max(a_e, d_rho(e)), one sample_service(queue) draw scaled by the fault factor at
// begin, d_e = begin + service, the task's next step pushed. False when none is pending.
template <typename ServiceSampler, typename Refill>
bool ServeDesEvent(SimScratch& scratch, const ServiceSampler& sample_service,
                   const FaultSchedule* faults, Refill&& refill) {
  std::vector<DesArrival>& heap = scratch.heap;
  double earliest = std::numeric_limits<double>::infinity();
  if (scratch.next_entry < scratch.entry_times.size()) {
    earliest = scratch.entry_times[scratch.next_entry];
  }
  if (!heap.empty()) {
    earliest = std::min(earliest, heap.front().time);
  }
  refill(earliest);

  // Initial arrivals come straight off entry_times: the list is sorted and ties break by
  // ascending task, which is exactly their (time, task, step=0) order, so merging it
  // against the heap top yields the pop sequence of a heap seeded with every arrival —
  // (time, task, step) is a strict total order — while the heap holds only tasks in
  // service.
  DesArrival next;
  const std::size_t k_next = scratch.next_entry;
  const bool entry_pending = k_next < scratch.entry_times.size();
  if (entry_pending) {
    next = DesArrival{scratch.entry_times[k_next], static_cast<int>(k_next), 0};
  }
  if (entry_pending && (heap.empty() || heap.front() > next)) {
    ++scratch.next_entry;
  } else if (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    next = heap.back();
    heap.pop_back();
  } else {
    return false;
  }
  const auto k = static_cast<std::size_t>(next.task);
  const std::size_t idx = scratch.route_offsets[k] + next.step;
  const auto q = static_cast<std::size_t>(scratch.route_steps[idx].queue);
  const double begin = std::max(next.time, scratch.frontier[q]);
  double service = sample_service(static_cast<int>(q));
  if (faults != nullptr) {
    service *= faults->ServiceFactor(static_cast<int>(q), begin);
  }
  const double departure = begin + service;
  scratch.frontier[q] = departure;
  scratch.step_begin[idx] = begin;
  scratch.step_departure[idx] = departure;
  // Pop order restricted to one queue is its arrival order, so this accumulates each
  // queue's waits in the same order as walking EventLog::QueueOrder(q).
  scratch.queue_wait_sum[q] += begin - next.time;
  if (next.step + 1 < scratch.route_offsets[k + 1] - scratch.route_offsets[k]) {
    heap.push_back(DesArrival{departure, next.task, next.step + 1});
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  return true;
}

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
