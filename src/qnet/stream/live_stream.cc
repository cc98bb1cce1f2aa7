#include "qnet/stream/live_stream.h"

#include <span>

#include "qnet/support/check.h"

namespace qnet {

LiveSimStream::LiveSimStream(const QueueingNetwork& net, const LiveSimOptions& options,
                             std::uint64_t seed)
    : net_(&net),
      options_(options),
      num_queues_(net.NumQueues()),
      rng_(seed),
      obs_rng_(MixSeed(seed, 0x6f62732d726e67ULL)) {  // independent observation stream
  QNET_CHECK(options_.max_tasks > 0 || options_.horizon > 0.0,
             "LiveSimStream needs max_tasks or horizon to terminate");
  QNET_CHECK(options_.arrival_rate > 0.0, "arrival rate must be positive");
  QNET_CHECK(options_.observed_fraction >= 0.0 && options_.observed_fraction <= 1.0,
             "bad observed_fraction ", options_.observed_fraction);
  arena_.route_offsets.push_back(0);
  BeginDes(num_queues_, arena_);
  next_entry_time_ = rng_.Exponential(InterarrivalRate(0.0));
  if (options_.horizon > 0.0 && next_entry_time_ > options_.horizon) {
    spawning_done_ = true;
  }
}

double LiveSimStream::InterarrivalRate(double at) const {
  if (options_.faults == nullptr || !options_.faults->HasArrivalSegments()) {
    return options_.arrival_rate;
  }
  return options_.arrival_rate * options_.faults->ArrivalFactor(at);
}

void LiveSimStream::SpawnTask() {
  arena_.entry_times.push_back(next_entry_time_);
  // The heap holds at most one event per arena task: growing it with the arena keeps a
  // new high-water mark of tasks in service from allocating.
  if (arena_.heap.capacity() < arena_.entry_times.capacity()) {
    arena_.heap.reserve(arena_.entry_times.capacity());
  }
  net_->GetFsm().AppendSampledRoute(rng_, arena_.route_steps);
  arena_.route_offsets.push_back(arena_.route_steps.size());
  // New rows are zero: a step's departure stays 0 until it is served (entries are
  // positive, so a served departure never is), which is how Next sees a task is done.
  arena_.step_begin.resize(arena_.route_steps.size());
  arena_.step_departure.resize(arena_.route_steps.size());
  ++spawned_;

  if (options_.max_tasks > 0 && spawned_ >= options_.max_tasks) {
    spawning_done_ = true;
    return;
  }
  // The gap is drawn at the rate in effect at the arrival just spawned (see
  // FaultSchedule::AddArrivalScale for the lag-one-gap semantics).
  next_entry_time_ += rng_.Exponential(InterarrivalRate(next_entry_time_));
  if (options_.horizon > 0.0 && next_entry_time_ > options_.horizon) {
    spawning_done_ = true;
  }
}

bool LiveSimStream::Next(TaskRecord& out) {
  const auto sample_service = [this](int queue) { return net_->Service(queue).Sample(rng_); };
  // Keep the next unspawned entry ahead of the processing frontier: spawn while its entry
  // time is at or before the earliest pending event (the entry just spawned is pending
  // too), so the core pops events in exactly the batch simulator's (time, task, step)
  // order.
  const auto spawn_due = [this](double earliest) {
    while (!spawning_done_ && next_entry_time_ <= earliest) {
      earliest = next_entry_time_;
      SpawnTask();
    }
  };
  while (next_emit_ == static_cast<std::size_t>(arena_.NumTasks()) ||
         arena_.ExitTime(static_cast<int>(next_emit_)) == 0.0) {
    if (!ServeDesEvent(arena_, sample_service, options_.faults, spawn_due)) {
      QNET_CHECK(TasksInFlight() == 0, "simulation drained with tasks in flight");
      return false;
    }
  }

  const int task = static_cast<int>(next_emit_);
  const std::span<const RouteStep> route = arena_.Route(task);
  const std::size_t base = arena_.route_offsets[next_emit_];
  // The coin stream is private and tasks leave in spawn order, so task k draws the k-th
  // coin whether it is drawn here or at spawn.
  const bool observed = obs_rng_.Bernoulli(options_.observed_fraction);
  out.entry_time = arena_.entry_times[next_emit_];
  out.visits.resize(route.size());
  for (std::size_t j = 0; j < route.size(); ++j) {
    TaskVisit& visit = out.visits[j];
    visit.state = route[j].state;
    visit.queue = route[j].queue;
    visit.arrival = arena_.StepArrival(task, j);
    visit.departure = arena_.step_departure[base + j];
    visit.arrival_observed = observed;
    visit.departure_observed =
        observed && (j + 1 < route.size() || options_.observe_final_departure);
  }
  ++next_emit_;

  // Compact once the emitted prefix is a full batch and outnumbers the tasks in flight:
  // each row moves O(1) times on average and the arena holds O(tasks in flight) rows. The
  // batch is the arena's slack: a burst of tasks in flight allocates only once it
  // outgrows the capacity the batch has already reserved.
  constexpr std::size_t kCompactBatch = 256;
  if (next_emit_ >= kCompactBatch && next_emit_ >= TasksInFlight()) {
    arena_.DropTasks(next_emit_);
    next_emit_ = 0;
  }
  return true;
}

}  // namespace qnet
