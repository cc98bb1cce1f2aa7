#include "qnet/model/event.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "qnet/support/check.h"
#include "qnet/support/logspace.h"
#include "qnet/support/math.h"

namespace qnet {

EventLog::EventLog(int num_queues) : num_queues_(num_queues) {
  QNET_CHECK(num_queues >= 2, "need the arrival queue plus at least one real queue");
  queue_order_.resize(static_cast<std::size_t>(num_queues));
}

std::size_t EventLog::Check(EventId e) const {
  QNET_DCHECK(e >= 0 && static_cast<std::size_t>(e) < events_.size(), "bad event id ", e);
  return static_cast<std::size_t>(e);
}

void EventLog::Reset(int num_queues) {
  QNET_CHECK(num_queues >= 2, "need the arrival queue plus at least one real queue");
  num_queues_ = num_queues;
  // Sized unconditionally: a moved-from log (WindowLogBuilder::Finish hands its log out
  // and then resets it) keeps num_queues_ but has lost its per-queue orders.
  queue_order_.resize(static_cast<std::size_t>(num_queues));
  events_.clear();
  for (auto& order : queue_order_) {
    order.clear();
  }
  // Per-task chains are recycled lazily: AddTask clears a retained slot when it reuses it.
  num_tasks_ = 0;
  links_built_ = false;
}

int EventLog::AddTask(double entry_time) {
  QNET_CHECK(!links_built_, "log is frozen after BuildQueueLinks");
  QNET_CHECK(entry_time >= 0.0, "entry time must be nonnegative: ", entry_time);
  const int task = NumTasks();
  if (task > 0) {
    const auto& prev_initial =
        events_[static_cast<std::size_t>(task_events_[static_cast<std::size_t>(task) - 1].front())];
    QNET_CHECK(entry_time >= prev_initial.departure,
               "tasks must be added in entry-time order; entry=", entry_time,
               " previous=", prev_initial.departure);
  }
  Event ev;
  ev.task = task;
  ev.queue = QueueingNetwork::kArrivalQueue;
  ev.arrival = 0.0;
  ev.departure = entry_time;
  ev.initial = true;
  const EventId id = static_cast<EventId>(events_.size());
  events_.push_back(ev);
  if (static_cast<std::size_t>(task) < task_events_.size()) {
    auto& chain = task_events_[static_cast<std::size_t>(task)];
    chain.clear();
    chain.push_back(id);
  } else {
    task_events_.push_back({id});
  }
  num_tasks_ = task + 1;
  return task;
}

EventId EventLog::AddVisit(int task, int state, int queue, double arrival, double departure) {
  QNET_CHECK(!links_built_, "log is frozen after BuildQueueLinks");
  QNET_CHECK(task >= 0 && task < NumTasks(), "bad task id ", task);
  QNET_CHECK(queue >= 1 && queue < num_queues_, "bad queue id ", queue);
  QNET_CHECK(departure >= arrival, "departure before arrival");
  auto& chain = task_events_[static_cast<std::size_t>(task)];
  const EventId prev = chain.back();
  QNET_CHECK(std::abs(arrival - events_[Check(prev)].departure) < 1e-9,
             "task continuity violated: arrival=", arrival,
             " but previous departure=", events_[Check(prev)].departure);
  Event ev;
  ev.task = task;
  ev.state = state;
  ev.queue = queue;
  ev.arrival = arrival;
  ev.departure = departure;
  ev.pi = prev;
  const EventId id = static_cast<EventId>(events_.size());
  events_.push_back(ev);
  events_[Check(prev)].tau = id;
  chain.push_back(id);
  return id;
}

void EventLog::CopyFrom(const EventLog& other) {
  if (this == &other) {
    return;
  }
  num_queues_ = other.num_queues_;
  links_built_ = other.links_built_;
  num_tasks_ = other.num_tasks_;
  events_.assign(other.events_.begin(), other.events_.end());
  const auto tasks = static_cast<std::size_t>(other.num_tasks_);
  if (task_events_.size() < tasks) {
    task_events_.resize(tasks);
  }
  for (std::size_t k = 0; k < tasks; ++k) {
    task_events_[k].assign(other.task_events_[k].begin(), other.task_events_[k].end());
  }
  queue_order_.resize(other.queue_order_.size());
  for (std::size_t q = 0; q < other.queue_order_.size(); ++q) {
    queue_order_[q].assign(other.queue_order_[q].begin(), other.queue_order_[q].end());
  }
}

void EventLog::BuildQueueLinks() {
  QNET_CHECK(!links_built_, "BuildQueueLinks called twice");
  for (auto& order : queue_order_) {
    order.clear();
  }
  for (EventId e = 0; static_cast<std::size_t>(e) < events_.size(); ++e) {
    queue_order_[static_cast<std::size_t>(events_[Check(e)].queue)].push_back(e);
  }
  const auto arrives_before = [this](EventId a, EventId b) {
    const double aa = events_[Check(a)].arrival;
    const double ab = events_[Check(b)].arrival;
    if (aa != ab) {
      return aa < ab;
    }
    return a < b;
  };
  for (auto& order : queue_order_) {
    // (arrival, id) ordering on id-ordered input == stable sort by arrival, and std::sort
    // (unlike std::stable_sort) allocates no temporary buffer — required for the warm
    // zero-allocation EventLog rebuild path. (arrival, id) is a total order, so the
    // sorted sequence is unique and a queue already in that order (most queues of an
    // entry-ordered stream) skips the sort without changing the result.
    if (!std::is_sorted(order.begin(), order.end(), arrives_before)) {
      std::sort(order.begin(), order.end(), arrives_before);
    }
    EventId prev = kNoEvent;
    for (EventId e : order) {
      events_[Check(e)].rho = prev;
      if (prev != kNoEvent) {
        events_[Check(prev)].nu = e;
      }
      prev = e;
    }
    if (prev != kNoEvent) {
      events_[Check(prev)].nu = kNoEvent;
    }
  }
  links_built_ = true;
}

void EventLog::MoveEventToQueue(EventId e, int new_queue) {
  QNET_CHECK(links_built_, "queue links not built");
  QNET_CHECK(new_queue >= 1 && new_queue < num_queues_, "bad queue id ", new_queue);
  Event& ev = events_[Check(e)];
  QNET_CHECK(!ev.initial, "initial events live on the virtual arrival queue");
  if (ev.queue == new_queue) {
    return;
  }
  // Unlink from the old queue's order.
  auto& old_order = queue_order_[static_cast<std::size_t>(ev.queue)];
  const auto it = std::find(old_order.begin(), old_order.end(), e);
  QNET_CHECK(it != old_order.end(), "event missing from its queue order");
  old_order.erase(it);
  if (ev.rho != kNoEvent) {
    events_[Check(ev.rho)].nu = ev.nu;
  }
  if (ev.nu != kNoEvent) {
    events_[Check(ev.nu)].rho = ev.rho;
  }
  // Insert into the new queue's order by arrival time (ties by event id, matching
  // BuildQueueLinks).
  auto& new_order = queue_order_[static_cast<std::size_t>(new_queue)];
  const auto pos = std::upper_bound(
      new_order.begin(), new_order.end(), e, [this](EventId a, EventId b) {
        const Event& ea = events_[Check(a)];
        const Event& eb = events_[Check(b)];
        if (ea.arrival != eb.arrival) {
          return ea.arrival < eb.arrival;
        }
        return a < b;
      });
  const EventId next = (pos == new_order.end()) ? kNoEvent : *pos;
  const EventId prev = (pos == new_order.begin()) ? kNoEvent : *(pos - 1);
  new_order.insert(pos, e);
  ev.queue = new_queue;
  ev.rho = prev;
  ev.nu = next;
  if (prev != kNoEvent) {
    events_[Check(prev)].nu = e;
  }
  if (next != kNoEvent) {
    events_[Check(next)].rho = e;
  }
}

const Event& EventLog::At(EventId e) const { return events_[Check(e)]; }

const std::vector<EventId>& EventLog::TaskEvents(int task) const {
  QNET_CHECK(task >= 0 && task < NumTasks(), "bad task id ", task);
  return task_events_[static_cast<std::size_t>(task)];
}

const std::vector<EventId>& EventLog::QueueOrder(int queue) const {
  QNET_CHECK(queue >= 0 && queue < num_queues_, "bad queue id ", queue);
  QNET_CHECK(links_built_, "queue links not built");
  return queue_order_[static_cast<std::size_t>(queue)];
}

MoveGeometry EventLog::ResolveMoveGeometry(const SweepMove& move) const {
  QNET_CHECK(links_built_, "queue links not built");
  Check(move.event);
  return move.kind == MoveKind::kArrival ? ResolveArrivalGeometryUnchecked(move.event)
                                         : ResolveFinalDepartureGeometryUnchecked(move.event);
}

MoveFootprint MoveFootprintOf(const SweepMove& move, const MoveGeometry& g) {
  MoveFootprint fp;
  const auto add = [&fp](EventId e) {
    if (e == kNoEvent || fp.Contains(e)) {
      return;
    }
    fp.events[fp.count++] = e;
  };
  add(move.event);
  if (move.kind == MoveKind::kArrival) {
    add(g.pi);      // d_pi is written (d_pi = a_e); a_pi is read via BeginService(pi)
    add(g.rho_pi);  // BeginService(pi) reads d_rho(pi)
    add(g.rho);     // t1 = d_rho(e); L reads a_rho(e)
    add(g.nu);      // U reads a_nu(e)
    add(g.nu_pi);   // s_nu(pi) reads a_nu(pi), d_nu(pi) (== e dedups on revisits)
  } else {
    add(g.rho);  // BeginService(e) reads d_rho(e)
    add(g.nu);   // the two-piece tail reads a_nu(e), d_nu(e)
  }
  return fp;
}

MoveFootprint EventLog::ComputeMoveFootprint(const SweepMove& move) const {
  return MoveFootprintOf(move, ResolveMoveGeometry(move));
}

double EventLog::BeginService(EventId e) const {
  Check(e);
  return BeginServiceUnchecked(e);
}

double EventLog::ServiceTime(EventId e) const {
  return events_[Check(e)].departure - BeginService(e);
}

double EventLog::WaitTime(EventId e) const { return BeginService(e) - events_[Check(e)].arrival; }

double EventLog::ResponseTime(EventId e) const {
  const Event& ev = events_[Check(e)];
  return ev.departure - ev.arrival;
}

bool EventLog::IsFeasible(double tol, std::string* why) const {
  QNET_CHECK(links_built_, "queue links not built");
  const auto fail = [why](const std::string& reason) {
    if (why != nullptr) {
      *why = reason;
    }
    return false;
  };
  for (EventId e = 0; static_cast<std::size_t>(e) < events_.size(); ++e) {
    const Event& ev = events_[Check(e)];
    if (ev.initial) {
      if (ev.arrival != 0.0) {
        return fail("initial event with nonzero arrival");
      }
    } else {
      const double prev_dep = events_[Check(ev.pi)].departure;
      if (std::abs(ev.arrival - prev_dep) > tol) {
        std::ostringstream os;
        os << "task continuity broken at event " << e << ": arrival " << ev.arrival
           << " vs pi departure " << prev_dep;
        return fail(os.str());
      }
    }
    if (ServiceTime(e) < -tol) {
      std::ostringstream os;
      os << "negative service time at event " << e << ": " << ServiceTime(e);
      return fail(os.str());
    }
    if (ev.rho != kNoEvent) {
      const Event& prev = events_[Check(ev.rho)];
      if (prev.arrival > ev.arrival + tol) {
        std::ostringstream os;
        os << "arrival order broken at event " << e;
        return fail(os.str());
      }
      if (prev.departure > ev.departure + tol) {
        std::ostringstream os;
        os << "departure (FIFO) order broken at event " << e << ": rho departs "
           << prev.departure << " after " << ev.departure;
        return fail(os.str());
      }
    }
  }
  return true;
}

double EventLog::LogJointTimes(const QueueingNetwork& net) const {
  QNET_CHECK(links_built_, "queue links not built");
  double total = 0.0;
  for (EventId e = 0; static_cast<std::size_t>(e) < events_.size(); ++e) {
    const double s = std::max(ServiceTime(e), 0.0);
    total += net.Service(events_[Check(e)].queue).LogPdf(s);
    if (total == kNegInf) {
      return kNegInf;
    }
  }
  return total;
}

double EventLog::LogJointRouting(const QueueingNetwork& net) const {
  double total = 0.0;
  for (int k = 0; k < NumTasks(); ++k) {
    total += net.GetFsm().LogProbRoute(TaskRoute(k));
    if (total == kNegInf) {
      return kNegInf;
    }
  }
  return total;
}

std::vector<double> EventLog::PerQueueMeanService() const {
  std::vector<double> sums(static_cast<std::size_t>(num_queues_), 0.0);
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_queues_), 0);
  for (EventId e = 0; static_cast<std::size_t>(e) < events_.size(); ++e) {
    const auto q = static_cast<std::size_t>(events_[Check(e)].queue);
    sums[q] += ServiceTime(e);
    ++counts[q];
  }
  for (std::size_t q = 0; q < sums.size(); ++q) {
    if (counts[q] > 0) {
      sums[q] /= static_cast<double>(counts[q]);
    }
  }
  return sums;
}

std::vector<double> EventLog::PerQueueMeanWait() const {
  std::vector<double> sums(static_cast<std::size_t>(num_queues_), 0.0);
  PerQueueWaitSumInto(sums);
  const std::vector<std::size_t> counts = PerQueueCount();
  for (std::size_t q = 0; q < sums.size(); ++q) {
    if (counts[q] > 0) {
      sums[q] /= static_cast<double>(counts[q]);
    }
  }
  return sums;
}

void EventLog::PerQueueWaitSumInto(std::span<double> sums) const {
  QNET_CHECK(sums.size() == static_cast<std::size_t>(num_queues_), "sums size mismatch");
  std::fill(sums.begin(), sums.end(), 0.0);
  for (EventId e = 0; static_cast<std::size_t>(e) < events_.size(); ++e) {
    sums[static_cast<std::size_t>(events_[Check(e)].queue)] += WaitTime(e);
  }
}

std::vector<std::size_t> EventLog::PerQueueCount() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_queues_), 0);
  for (const Event& ev : events_) {
    ++counts[static_cast<std::size_t>(ev.queue)];
  }
  return counts;
}

std::vector<double> EventLog::PerQueueServiceSum() const {
  std::vector<double> sums(static_cast<std::size_t>(num_queues_));
  PerQueueServiceSumInto(sums);
  return sums;
}

void EventLog::PerQueueServiceSumInto(std::span<double> sums) const {
  QNET_CHECK(sums.size() == static_cast<std::size_t>(num_queues_), "sums size mismatch");
  std::fill(sums.begin(), sums.end(), 0.0);
  for (EventId e = 0; static_cast<std::size_t>(e) < events_.size(); ++e) {
    const Event& ev = events_[static_cast<std::size_t>(e)];
    sums[static_cast<std::size_t>(ev.queue)] += ev.departure - BeginServiceUnchecked(e);
  }
}

std::vector<double> EventLog::PerQueueResponseQuantile(double quantile) const {
  QNET_CHECK(quantile >= 0.0 && quantile <= 1.0, "bad quantile ", quantile);
  std::vector<std::vector<double>> responses(static_cast<std::size_t>(num_queues_));
  for (EventId e = 0; static_cast<std::size_t>(e) < events_.size(); ++e) {
    responses[static_cast<std::size_t>(events_[Check(e)].queue)].push_back(ResponseTime(e));
  }
  std::vector<double> out(static_cast<std::size_t>(num_queues_),
                          std::numeric_limits<double>::quiet_NaN());
  for (std::size_t q = 0; q < out.size(); ++q) {
    if (!responses[q].empty()) {
      out[q] = Quantile(responses[q], quantile);
    }
  }
  return out;
}

std::vector<RouteStep> EventLog::TaskRoute(int task) const {
  const auto& chain = TaskEvents(task);
  std::vector<RouteStep> route;
  route.reserve(chain.size() - 1);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const Event& ev = events_[Check(chain[i])];
    route.push_back(RouteStep{ev.state, ev.queue});
  }
  return route;
}

double EventLog::TaskExitTime(int task) const {
  const auto& chain = TaskEvents(task);
  return events_[Check(chain.back())].departure;
}

double EventLog::TaskEntryTime(int task) const {
  const auto& chain = TaskEvents(task);
  return events_[Check(chain.front())].departure;
}

}  // namespace qnet
