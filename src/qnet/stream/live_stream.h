// Live TraceStream backend: drives the discrete-event simulator *incrementally* (the
// `sim/` layer of the streaming engine).
//
// The batch simulator (sim/simulator.cc) needs every entry time up front. This adapter
// runs the same DES core (ServeDesEvent on a SimScratch arena, sim/sim_scratch.h) but
// spawns tasks lazily from an interarrival process through the core's refill hook, and
// emits each task's TaskRecord as soon as the task leaves the system. The emitted prefix
// of the arena is compacted away, so memory is O(tasks in flight), not O(tasks
// simulated), and unbounded-horizon workloads are streamable.
//
// Records are emitted in task (= entry) order: a task that finishes before an earlier
// task waits in the arena until the earlier one completes, so downstream consumers see
// the entry-ordered stream TraceStream promises.
//
// Determinism: everything is a function of the seed. Interarrivals, routes and service
// times interleave on one stream in simulation order (unlike the batch simulator, which
// samples all routes before any service time, so the two are not draw-for-draw
// identical); per-task observation coin flips use an independently forked stream.

#ifndef QNET_STREAM_LIVE_STREAM_H_
#define QNET_STREAM_LIVE_STREAM_H_

#include <cstddef>
#include <cstdint>

#include "qnet/model/network.h"
#include "qnet/sim/fault.h"
#include "qnet/sim/sim_scratch.h"
#include "qnet/stream/task_record.h"
#include "qnet/support/rng.h"

namespace qnet {

struct LiveSimOptions {
  // Stop spawning after this many tasks (0 = unbounded; then horizon must be set).
  std::size_t max_tasks = 0;
  // Stop spawning once the next entry time would exceed this (0 = unbounded).
  double horizon = 0.0;
  // Poisson interarrival rate for task entries.
  double arrival_rate = 1.0;
  // Optional fault schedule (must outlive the stream): service-time slowdowns apply to
  // service draws, arrival scale segments modulate the interarrival rate (see
  // FaultSchedule::AddArrivalScale for the exact semantics).
  const FaultSchedule* faults = nullptr;
  // Task-level observation thinning, mirroring TaskSamplingScheme: each task is fully
  // arrival-observed with probability observed_fraction; observed tasks additionally
  // report their system exit time when observe_final_departure is set.
  double observed_fraction = 1.0;
  bool observe_final_departure = true;
};

class LiveSimStream : public TraceStream {
 public:
  // `net` must outlive the stream.
  LiveSimStream(const QueueingNetwork& net, const LiveSimOptions& options, std::uint64_t seed);

  // Reuses out's visit capacity: a warm ingest loop pulling into one TaskRecord does not
  // allocate.
  bool Next(TaskRecord& out) override;
  int NumQueues() const override { return num_queues_; }

  // Tasks spawned and not yet emitted (memory bound witness).
  std::size_t TasksInFlight() const {
    return static_cast<std::size_t>(arena_.NumTasks()) - next_emit_;
  }
  // The DES arena: the tasks in flight plus an emitted prefix awaiting compaction.
  const SimScratch& Arena() const { return arena_; }

 private:
  // Stages the next task into the arena and draws the following entry time.
  void SpawnTask();
  // Arrival rate in effect for the interarrival gap drawn at time `at`: the base rate
  // times the fault schedule's ArrivalFactor(at). Without arrival segments this returns
  // the base rate untouched, and an all-1.0 schedule multiplies by exactly 1.0 — either
  // way the Exponential draw is bit-identical to the unmodulated stream.
  double InterarrivalRate(double at) const;

  const QueueingNetwork* net_;
  LiveSimOptions options_;
  int num_queues_;
  Rng rng_;
  Rng obs_rng_;

  SimScratch arena_;
  // Arena task emitted next; tasks before it wait for compaction.
  std::size_t next_emit_ = 0;
  std::size_t spawned_ = 0;
  bool spawning_done_ = false;
  double next_entry_time_ = 0.0;
};

}  // namespace qnet

#endif  // QNET_STREAM_LIVE_STREAM_H_
