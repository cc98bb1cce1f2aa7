// Event-graph representation of a set of tasks processed by a queueing network
// (paper Section 2).
//
// Every (task, queue-visit) pair is one event e = (k_e, sigma_e, q_e, a_e, d_e). Each task
// additionally owns an *initial event* at the virtual arrival queue 0 that arrives at t = 0
// and departs at the task's system entry time, so the system interarrival process is the
// "service" process of queue 0.
//
// Link structure:
//   pi(e)  — within-task predecessor (previous visit of the same task; the initial event for
//            the first real visit),
//   tau(e) — within-task successor,
//   rho(e) — within-queue predecessor in *arrival order*,
//   nu(e)  — within-queue successor in arrival order.
//
// The deterministic dependencies a_e = d_pi(e) and d_e = s_e + max(a_e, d_rho(e)) mean the
// service times s_e are *derived* quantities: ServiceTime(e) computes them from the stored
// arrival/departure times and the links. The inference code mutates times while holding the
// link structure (i.e. the known per-queue arrival order) fixed.

#ifndef QNET_MODEL_EVENT_H_
#define QNET_MODEL_EVENT_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qnet/model/network.h"
#include "qnet/support/check.h"

namespace qnet {

using EventId = std::int32_t;
inline constexpr EventId kNoEvent = -1;

struct Event {
  std::int32_t task = -1;
  std::int32_t state = -1;  // FSM state; -1 for initial events.
  std::int32_t queue = -1;
  double arrival = 0.0;
  double departure = 0.0;
  EventId pi = kNoEvent;
  EventId tau = kNoEvent;
  EventId rho = kNoEvent;
  EventId nu = kNoEvent;
  bool initial = false;
};

// --- Sweep moves & footprints ----------------------------------------------------------
//
// A Gibbs sweep is a sequence of single-site moves; each move resamples one latent time
// while reading only a bounded neighborhood of the event graph. The model layer owns the
// move/footprint vocabulary because the footprint is a pure function of the link structure
// (which the inference code holds fixed), so conflict analysis never depends on sampler
// internals.

enum class MoveKind : std::uint8_t {
  kArrival,         // resample a_e jointly with d_pi(e)
  kFinalDeparture,  // resample the system exit time d_e of a task's last event
};

struct SweepMove {
  MoveKind kind = MoveKind::kArrival;
  EventId event = kNoEvent;

  friend bool operator==(const SweepMove&, const SweepMove&) = default;
};

// The neighbour ids a move's conditional reads, resolved from the link structure. Like
// the footprint it is a pure function of the links, so one resolution stays valid while a
// sampler mutates times in place: the sweep scheduler resolves every move once per
// schedule and the batched kernel then reads only times. Arrival moves fill every field;
// final-departure moves fill rho, nu and queue and leave the pi-side fields kNoEvent / -1.
struct MoveGeometry {
  EventId pi = kNoEvent;      // pi(e)
  EventId rho = kNoEvent;     // rho(e)
  EventId nu = kNoEvent;      // nu(e)
  EventId rho_pi = kNoEvent;  // rho(pi(e)): BeginService(pi) reads its departure
  EventId nu_pi = kNoEvent;   // nu(pi(e)): may be e itself on a same-queue revisit
  std::int32_t queue = -1;     // q_e
  std::int32_t pi_queue = -1;  // q_pi(e)

  friend bool operator==(const MoveGeometry&, const MoveGeometry&) = default;
};

// The set of events whose stored times a move reads or writes. Bounded by construction:
// an arrival move touches {e, pi(e), rho(pi), rho(e), nu(e), nu(pi)} and a final-departure
// move {e, rho(e), nu(e)} — deduplicated, with missing neighbors dropped. Two moves with
// disjoint footprints commute: their writes are disjoint and neither reads a time the
// other writes, so they may run concurrently (or in either order) with identical results.
struct MoveFootprint {
  static constexpr std::size_t kMaxEvents = 6;

  std::array<EventId, kMaxEvents> events{};
  std::size_t count = 0;

  std::span<const EventId> Events() const { return {events.data(), count}; }

  bool Contains(EventId e) const {
    for (std::size_t i = 0; i < count; ++i) {
      if (events[i] == e) {
        return true;
      }
    }
    return false;
  }

  bool Intersects(const MoveFootprint& other) const {
    for (std::size_t i = 0; i < count; ++i) {
      if (other.Contains(events[i])) {
        return true;
      }
    }
    return false;
  }
};

// The footprint of a move from its resolved geometry: the move's event, then (arrival)
// pi, rho(pi), rho, nu, nu(pi) or (final departure) rho, nu, deduplicated in that order.
MoveFootprint MoveFootprintOf(const SweepMove& move, const MoveGeometry& geometry);

class EventLog {
 public:
  explicit EventLog(int num_queues);

  // --- Construction ------------------------------------------------------------------

  // Returns the log to its freshly-constructed state while keeping every backing buffer's
  // capacity (events, per-task chains, per-queue orders), so rebuilding a same-shaped log
  // allocates nothing once warm. The DES scratch path (sim/sim_scratch.h) relies on this.
  void Reset(int num_queues);

  // Creates the next task together with its initial event departing at entry_time; returns
  // the task id. Tasks must be added in nondecreasing entry-time order (this pins the
  // arrival order at queue 0, where all initial events arrive at t = 0).
  int AddTask(double entry_time);

  // Appends the next queue visit of `task` in route order. The first visit's arrival must
  // equal the task's entry time; later arrivals must equal the previous departure.
  EventId AddVisit(int task, int state, int queue, double arrival, double departure);

  // Makes this log a copy of `other` (the same result as copy-assignment) while keeping
  // every buffer's capacity, including per-task chain slots beyond other's task count, so
  // copying a same-shaped or smaller log into a warm one allocates nothing.
  void CopyFrom(const EventLog& other);

  // Establishes rho/nu links from the arrival order (ties broken by event id, which keeps
  // queue-0 initial events in task order). Must be called once after construction; the
  // inference code then treats the order as known and immutable.
  void BuildQueueLinks();
  bool QueueLinksBuilt() const { return links_built_; }

  // Reassigns event e to `new_queue`, splicing it out of its current queue's arrival order
  // and into the new queue's order at the position given by its (unchanged) arrival time.
  // The building block of resampling unknown FSM paths (paper Section 3). It only
  // requires the new position to respect arrival order, not FIFO feasibility; checking
  // that is the caller's job. A GibbsSampler whose state is changed this way (through
  // MutableState()) rebuilds its schedule before the next sweep.
  void MoveEventToQueue(EventId e, int new_queue);

  // --- Shape -------------------------------------------------------------------------

  std::size_t NumEvents() const { return events_.size(); }
  int NumTasks() const { return num_tasks_; }
  int NumQueues() const { return num_queues_; }
  const Event& At(EventId e) const;
  const std::vector<EventId>& TaskEvents(int task) const;     // initial event first
  const std::vector<EventId>& QueueOrder(int queue) const;    // arrival order

  // --- Times (mutable for samplers) ---------------------------------------------------

  double Arrival(EventId e) const { return events_[Check(e)].arrival; }
  double Departure(EventId e) const { return events_[Check(e)].departure; }
  void SetArrival(EventId e, double t) { events_[Check(e)].arrival = t; }
  void SetDeparture(EventId e, double t) { events_[Check(e)].departure = t; }

  // --- Unchecked hot-path accessors ----------------------------------------------------
  // Inline, QNET_DCHECK-guarded variants of At/Arrival/Departure/BeginService for the
  // Gibbs inner loop: bounds checks compile out under NDEBUG and no out-of-line call is
  // made per access. The checked accessors below stay the default everywhere else.

  const Event& AtUnchecked(EventId e) const {
    QNET_DCHECK(e >= 0 && static_cast<std::size_t>(e) < events_.size(), "bad event id ", e);
    return events_[static_cast<std::size_t>(e)];
  }
  double ArrivalUnchecked(EventId e) const { return AtUnchecked(e).arrival; }
  double DepartureUnchecked(EventId e) const { return AtUnchecked(e).departure; }
  void SetArrivalUnchecked(EventId e, double t) { MutableAtUnchecked(e).arrival = t; }
  void SetDepartureUnchecked(EventId e, double t) { MutableAtUnchecked(e).departure = t; }
  // max(a_e, d_rho(e)) without an out-of-line call; BeginService delegates here.
  double BeginServiceUnchecked(EventId e) const {
    QNET_DCHECK(links_built_, "queue links not built");
    const Event& ev = AtUnchecked(e);
    if (ev.rho == kNoEvent) {
      return ev.arrival;
    }
    return std::max(ev.arrival, AtUnchecked(ev.rho).departure);
  }

  // --- Move dependency API --------------------------------------------------------------

  // The bounded neighborhood of events whose times the given Gibbs move reads or writes
  // (see MoveFootprint). Depends only on the link structure, never on the stored times, so
  // footprints computed once stay valid while a sampler mutates times in place. Requires
  // built queue links; CHECK-fails on moves the samplers would reject (arrival move on an
  // initial event, final-departure move on an event with a within-task successor).
  MoveFootprint ComputeMoveFootprint(const SweepMove& move) const;

  // The move's neighbour ids (see MoveGeometry). Same contract and checks as
  // ComputeMoveFootprint, which is the deduplicated id set of this geometry.
  MoveGeometry ResolveMoveGeometry(const SweepMove& move) const;

  // Inline link walks behind ResolveMoveGeometry for the scalar per-move gathers: bounds
  // are DCHECK-only, the move-kind checks stay on.
  MoveGeometry ResolveArrivalGeometryUnchecked(EventId e) const {
    const Event& ev = AtUnchecked(e);
    QNET_CHECK(!ev.initial, "cannot resample the arrival of an initial event");
    const Event& pi = AtUnchecked(ev.pi);
    return MoveGeometry{ev.pi, ev.rho, ev.nu, pi.rho, pi.nu, ev.queue, pi.queue};
  }
  MoveGeometry ResolveFinalDepartureGeometryUnchecked(EventId e) const {
    const Event& ev = AtUnchecked(e);
    QNET_CHECK(ev.tau == kNoEvent,
               "event has a within-task successor; use the arrival move on tau instead");
    MoveGeometry g;
    g.rho = ev.rho;
    g.nu = ev.nu;
    g.queue = ev.queue;
    return g;
  }

  // Time at which e begins service: max(a_e, d_rho(e)).
  double BeginService(EventId e) const;
  // Derived service time s_e = d_e - BeginService(e).
  double ServiceTime(EventId e) const;
  // Derived waiting time w_e = BeginService(e) - a_e.
  double WaitTime(EventId e) const;
  // Response time r_e = w_e + s_e = d_e - a_e.
  double ResponseTime(EventId e) const;

  // --- Invariants & density ------------------------------------------------------------

  // True when every deterministic constraint holds within tol: nonnegative service times,
  // task continuity (a_e == d_pi(e)), per-queue arrival AND departure order consistent with
  // the links, and initial events anchored at arrival 0. On failure *why (if non-null)
  // receives a human-readable reason.
  bool IsFeasible(double tol = 1e-9, std::string* why = nullptr) const;

  // Log joint density of all service times under the network's service distributions:
  // sum_e log p(s_e | q_e). This is the continuous part of eq. (1); the indicator terms are
  // presumed satisfied (IsFeasible) and the FSM terms are LogJointRouting.
  double LogJointTimes(const QueueingNetwork& net) const;
  // Log probability of all task routes under the FSM: sum_e log p(q_e|sigma_e) p(sigma_e|.).
  double LogJointRouting(const QueueingNetwork& net) const;

  // --- Summaries ------------------------------------------------------------------------

  // Per-queue mean of derived service times (index 0 = interarrival gaps).
  std::vector<double> PerQueueMeanService() const;
  // Per-queue mean waiting time.
  std::vector<double> PerQueueMeanWait() const;
  // Per-queue sum of waiting times, written into `sums` (one slot per queue): the
  // numerator of PerQueueMeanWait, accumulated in the same event order.
  void PerQueueWaitSumInto(std::span<double> sums) const;
  // Per-queue event counts.
  std::vector<std::size_t> PerQueueCount() const;
  // Sum of service times per queue (the M-step sufficient statistic).
  std::vector<double> PerQueueServiceSum() const;
  // The same sums written into `sums` (one slot per queue): ServiceTime(e) added in
  // event-id order, the one definition both forms share.
  void PerQueueServiceSumInto(std::span<double> sums) const;
  // Per-queue quantile of response times (e.g. 0.95 for tail latency); NaN for queues with
  // no events.
  std::vector<double> PerQueueResponseQuantile(double quantile) const;

  // Route of a task as (state, queue) steps, excluding the initial event.
  std::vector<RouteStep> TaskRoute(int task) const;

  // Final (exit) time of a task = departure of its last event.
  double TaskExitTime(int task) const;
  double TaskEntryTime(int task) const;

 private:
  std::size_t Check(EventId e) const;

  Event& MutableAtUnchecked(EventId e) {
    QNET_DCHECK(e >= 0 && static_cast<std::size_t>(e) < events_.size(), "bad event id ", e);
    return events_[static_cast<std::size_t>(e)];
  }

  int num_queues_;
  bool links_built_ = false;
  // Number of live tasks; task_events_ may hold more (capacity-preserving) slots after a
  // Reset, so NumTasks() never reads task_events_.size().
  int num_tasks_ = 0;
  std::vector<Event> events_;
  std::vector<std::vector<EventId>> task_events_;
  std::vector<std::vector<EventId>> queue_order_;
};

}  // namespace qnet

#endif  // QNET_MODEL_EVENT_H_
