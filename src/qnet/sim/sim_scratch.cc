#include "qnet/sim/sim_scratch.h"

#include "qnet/telemetry/metrics.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {
namespace {

// A batch run: every task staged up front, then the event loop to the end. The service
// sampler is the only thing that differs between the virtual-dispatch and exponential
// fast paths; the loop itself is ServeDesEvent, the live stream's loop too, so no two
// paths can diverge on the generative model.
template <typename ServiceSampler>
void RunDesCore(int num_queues, SimScratch& scratch, const ServiceSampler& sample_service,
                const FaultSchedule* faults) {
  ScopedSpan span(SpanStage::kDesRun);
  const std::size_t num_tasks = scratch.entry_times.size();
  SimCounters::Get().runs->Increment();
  SimCounters::Get().tasks->Add(num_tasks);
  QNET_CHECK(scratch.route_offsets.size() == num_tasks + 1 && scratch.route_offsets[0] == 0,
             "scratch route offsets not staged for ", num_tasks, " tasks");
  QNET_CHECK(scratch.route_offsets.back() == scratch.route_steps.size(),
             "scratch route offsets inconsistent with route steps");
  // Per-element validation is debug-only: the staging functions above are the only
  // producers of these buffers and construct them sorted/non-empty by construction, and
  // the O(n) loop is measurable against the ~16-cells/ms scenario budget.
  for (std::size_t k = 0; k < num_tasks; ++k) {
    QNET_DCHECK(scratch.entry_times[k] > 0.0, "entry times must be positive");
    QNET_DCHECK(k == 0 || scratch.entry_times[k] >= scratch.entry_times[k - 1],
                "entry times must be nondecreasing");
    QNET_DCHECK(scratch.route_offsets[k + 1] > scratch.route_offsets[k],
                "task ", k, " has an empty route");
  }

  scratch.step_begin.resize(scratch.route_steps.size());
  scratch.step_departure.resize(scratch.route_steps.size());
  BeginDes(num_queues, scratch);
  // Hard bound — each task has at most one pending event — so the in-flight high-water
  // mark (which varies with stochastic congestion) can never outgrow a warm arena.
  scratch.heap.reserve(num_tasks);
  // Pop order (hence service-draw consumption) matches a heap seeded with every arrival
  // bit for bit; the goldens in tests/test_simulator.cc were recorded from one.
  while (ServeDesEvent(scratch, sample_service, faults, [](double) {})) {
  }

  // Busy time in (task, step) order — PerQueueServiceSum's event-id order restricted to
  // real queues (initial events only touch queue 0).
  for (std::size_t k = 0; k < num_tasks; ++k) {
    for (std::size_t idx = scratch.route_offsets[k]; idx < scratch.route_offsets[k + 1]; ++idx) {
      const auto q = static_cast<std::size_t>(scratch.route_steps[idx].queue);
      scratch.queue_busy_sum[q] += scratch.step_departure[idx] - scratch.step_begin[idx];
    }
  }
}

}  // namespace

void SimScratch::DropTasks(std::size_t count) {
  QNET_DCHECK(count <= next_entry, "dropping tasks that have not started");
  const std::size_t steps = route_offsets[count];
  const auto drop = [](auto& rows, std::size_t n) {
    rows.erase(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(n));
  };
  drop(entry_times, count);
  drop(route_offsets, count);
  drop(route_steps, steps);
  drop(step_begin, steps);
  drop(step_departure, steps);
  for (std::size_t& offset : route_offsets) {
    offset -= steps;
  }
  for (DesArrival& event : heap) {
    QNET_DCHECK(static_cast<std::size_t>(event.task) >= count, "dropping a task in service");
    event.task -= static_cast<int>(count);
  }
  next_entry -= count;
}

void BeginDes(int num_queues, SimScratch& scratch) {
  const auto queues = static_cast<std::size_t>(num_queues);
  scratch.frontier.assign(queues, 0.0);
  scratch.queue_wait_sum.assign(queues, 0.0);
  scratch.queue_busy_sum.assign(queues, 0.0);
  scratch.heap.clear();
  scratch.next_entry = 0;
}

void SampleRoutesIntoScratch(const Fsm& fsm, SimScratch& scratch, Rng& rng) {
  scratch.route_steps.clear();
  scratch.route_offsets.clear();
  scratch.route_offsets.push_back(0);
  const std::size_t num_tasks = scratch.entry_times.size();
  for (std::size_t k = 0; k < num_tasks; ++k) {
    fsm.AppendSampledRoute(rng, scratch.route_steps);
    scratch.route_offsets.push_back(scratch.route_steps.size());
  }
}

void RunStagedDes(const QueueingNetwork& net, SimScratch& scratch, Rng& rng,
                  const SimOptions& options) {
  RunDesCore(
      net.NumQueues(), scratch,
      [&net, &rng](int queue) { return net.Service(queue).Sample(rng); }, options.faults);
}

void RunStagedDesExponential(std::span<const double> pooled_rates, SimScratch& scratch,
                             Rng& rng, const FaultSchedule* faults) {
  RunDesCore(
      static_cast<int>(pooled_rates.size()), scratch,
      [pooled_rates, &rng](int queue) {
        return rng.Exponential(pooled_rates[static_cast<std::size_t>(queue)]);
      },
      faults);
}

void SimulateIntoScratch(const QueueingNetwork& net, SimScratch& scratch, Rng& rng,
                         const SimOptions& options) {
  SampleRoutesIntoScratch(net.GetFsm(), scratch, rng);
  RunStagedDes(net, scratch, rng, options);
}

void SimulateWorkloadIntoScratch(const QueueingNetwork& net, const ArrivalProcess& workload,
                                 SimScratch& scratch, Rng& rng, const SimOptions& options) {
  workload.GenerateInto(scratch.entry_times, rng);
  SimulateIntoScratch(net, scratch, rng, options);
}

void ScratchToEventLog(const SimScratch& scratch, int num_queues, EventLog& log) {
  log.Reset(num_queues);
  const int num_tasks = scratch.NumTasks();
  for (int k = 0; k < num_tasks; ++k) {
    log.AddTask(scratch.entry_times[static_cast<std::size_t>(k)]);
    const std::span<const RouteStep> route = scratch.Route(k);
    const std::size_t base = scratch.route_offsets[static_cast<std::size_t>(k)];
    for (std::size_t j = 0; j < route.size(); ++j) {
      log.AddVisit(k, route[j].state, route[j].queue, scratch.StepArrival(k, j),
                   scratch.step_departure[base + j]);
    }
  }
  log.BuildQueueLinks();
  QNET_DCHECK(log.IsFeasible(1e-6), "staged simulator produced an infeasible log");
}

}  // namespace qnet
