#include "qnet/infer/initializer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "qnet/lp/problem.h"
#include "qnet/lp/simplex.h"
#include "qnet/support/check.h"
#include "qnet/support/logspace.h"

namespace qnet {
namespace {

// The constraint graph on departure variables as one CSR: edge u -> v encodes x_u <= x_v,
// and u's successors are succ[succ_offsets[u] .. succ_offsets[u + 1]). Two passes over the
// same edge emission (count, then fill) keep every successor list in emission order, so
// Kahn's algorithm visits exactly the order the list-of-lists build produced.
template <typename EmitEdge>
void ForEachConstraintEdge(const EventLog& log, EmitEdge&& emit) {
  // Per-event inner loop over the whole log: *Unchecked accessors under DCHECK, per the
  // hot-path contract (ids come straight from the iteration bounds and the links).
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    const Event& ev = log.AtUnchecked(e);
    if (!ev.initial) {
      emit(ev.pi, e);  // x_pi <= x_e
    }
    if (ev.rho != kNoEvent) {
      emit(ev.rho, e);  // x_rho <= x_e
      const Event& rho = log.AtUnchecked(ev.rho);
      if (!ev.initial && !rho.initial) {
        emit(rho.pi, ev.pi);  // arrival order: x_pi(rho(e)) <= x_pi(e)
      }
    }
  }
}

void BuildConstraintGraph(const EventLog& log, InitializerScratch& scratch) {
  const std::size_t n = log.NumEvents();
  scratch.succ_offsets.assign(n + 1, 0);
  ForEachConstraintEdge(log, [&](EventId u, EventId) {
    ++scratch.succ_offsets[static_cast<std::size_t>(u) + 1];
  });
  for (std::size_t u = 0; u < n; ++u) {
    scratch.succ_offsets[u + 1] += scratch.succ_offsets[u];
  }
  scratch.succ.resize(static_cast<std::size_t>(scratch.succ_offsets[n]));
  scratch.cursor.assign(scratch.succ_offsets.begin(), scratch.succ_offsets.end() - 1);
  ForEachConstraintEdge(log, [&](EventId u, EventId v) {
    scratch.succ[static_cast<std::size_t>(scratch.cursor[static_cast<std::size_t>(u)]++)] = v;
  });
}

std::span<const EventId> Successors(const InitializerScratch& scratch, EventId u) {
  const auto begin = static_cast<std::size_t>(scratch.succ_offsets[static_cast<std::size_t>(u)]);
  const auto end =
      static_cast<std::size_t>(scratch.succ_offsets[static_cast<std::size_t>(u) + 1]);
  return {scratch.succ.data() + begin, end - begin};
}

// Kahn's algorithm with scratch.order as its FIFO queue: the queue's pop sequence IS the
// topological order, so one index walks it.
void TopologicalOrderInto(std::size_t n, InitializerScratch& scratch) {
  scratch.cursor.assign(n, 0);  // in-degrees
  for (EventId v : scratch.succ) {
    ++scratch.cursor[static_cast<std::size_t>(v)];
  }
  scratch.order.clear();
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    if (scratch.cursor[static_cast<std::size_t>(e)] == 0) {
      scratch.order.push_back(e);
    }
  }
  for (std::size_t head = 0; head < scratch.order.size(); ++head) {
    for (EventId v : Successors(scratch, scratch.order[head])) {
      if (--scratch.cursor[static_cast<std::size_t>(v)] == 0) {
        scratch.order.push_back(v);
      }
    }
  }
  QNET_CHECK(scratch.order.size() == n, "constraint graph has a cycle; corrupt event log?");
}

}  // namespace

std::vector<EventId> ConstraintTopologicalOrder(const EventLog& log) {
  InitializerScratch scratch;
  BuildConstraintGraph(log, scratch);
  TopologicalOrderInto(log.NumEvents(), scratch);
  return std::move(scratch.order);
}

namespace {

void ComputeWindows(const EventLog& log, const Observation& obs, InitializerScratch& w) {
  const std::size_t n = log.NumEvents();
  w.lower.assign(n, 0.0);
  w.upper.assign(n, kPosInf);
  w.pinned.assign(n, 0);
  w.pin_value.assign(n, 0.0);
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    if (obs.DepartureObserved(e)) {
      w.pinned[static_cast<std::size_t>(e)] = 1;
      w.pin_value[static_cast<std::size_t>(e)] = log.DepartureUnchecked(e);
    }
  }
  // Forward pass: lower bounds.
  for (EventId u : w.order) {
    auto& lb = w.lower[static_cast<std::size_t>(u)];
    if (w.pinned[static_cast<std::size_t>(u)] != 0) {
      QNET_CHECK(w.pin_value[static_cast<std::size_t>(u)] >= lb - 1e-6,
                 "observed departure violates lower bound at event ", u);
      lb = w.pin_value[static_cast<std::size_t>(u)];
    }
    for (EventId v : Successors(w, u)) {
      auto& lb_v = w.lower[static_cast<std::size_t>(v)];
      lb_v = std::max(lb_v, lb);
    }
  }
  // Backward pass: upper bounds.
  for (auto it = w.order.rbegin(); it != w.order.rend(); ++it) {
    const EventId u = *it;
    auto& ub = w.upper[static_cast<std::size_t>(u)];
    for (EventId v : Successors(w, u)) {
      ub = std::min(ub, w.upper[static_cast<std::size_t>(v)]);
    }
    if (w.pinned[static_cast<std::size_t>(u)] != 0) {
      QNET_CHECK(w.pin_value[static_cast<std::size_t>(u)] <= ub + 1e-6,
                 "observed departure violates upper bound at event ", u);
      ub = w.pin_value[static_cast<std::size_t>(u)];
    }
    QNET_CHECK(w.lower[static_cast<std::size_t>(u)] <= ub + 1e-6,
               "infeasible window at event ", u);
  }
}

void AssignGreedy(const EventLog& log, std::span<const double> rates, Rng& rng,
                  InitializerScratch& w) {
  const std::size_t n = log.NumEvents();
  // Incoming max of assigned predecessor values, maintained while walking the topo order.
  w.pred_max.assign(n, 0.0);
  w.x.assign(n, 0.0);
  for (EventId u : w.order) {
    const std::size_t ui = static_cast<std::size_t>(u);
    double value;
    if (w.pinned[ui] != 0) {
      value = w.pin_value[ui];
      QNET_CHECK(value >= w.pred_max[ui] - 1e-6,
                 "observed time below assigned predecessors at event ", u);
    } else {
      const double base = std::max(w.pred_max[ui], w.lower[ui]);
      const double rate = rates[static_cast<std::size_t>(log.AtUnchecked(u).queue)];
      double value_try = base + rng.Exponential(rate);
      const double ub = w.upper[ui];
      if (value_try > ub) {
        // Clip into the window, placing the point strictly inside when possible.
        value_try = (std::isfinite(ub) && ub > base) ? base + 0.95 * (ub - base) : ub;
      }
      value = std::min(std::max(value_try, base), ub);
    }
    w.x[ui] = value;
    for (EventId v : Successors(w, u)) {
      auto& pm = w.pred_max[static_cast<std::size_t>(v)];
      pm = std::max(pm, value);
    }
  }
}

std::vector<double> AssignLp(const EventLog& log, const InitializerScratch& windows,
                             std::span<const double> rates, double epsilon) {
  const std::size_t n = log.NumEvents();
  LpProblem lp;
  // One departure variable per free event; pinned events are constants.
  std::vector<int> x_var(n, -1);
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    const std::size_t ei = static_cast<std::size_t>(e);
    if (windows.pinned[ei] == 0) {
      x_var[ei] = lp.AddVariable("x" + std::to_string(e), 0.0);
    }
  }
  const auto x_term = [&](EventId e) -> std::pair<bool, double> {
    // Returns (is_variable, constant). Pinned events contribute a constant.
    const std::size_t ei = static_cast<std::size_t>(e);
    if (windows.pinned[ei] != 0) {
      return {false, windows.pin_value[ei]};
    }
    return {true, 0.0};
  };
  // Difference-constraint helper: x_u - x_v <= 0, with pinned sides folded into the rhs.
  const auto add_le2 = [&](EventId u, EventId v) {
    const auto [u_isvar, u_const] = x_term(u);
    const auto [v_isvar, v_const] = x_term(v);
    std::vector<std::pair<int, double>> terms;
    double rhs = 0.0;
    if (u_isvar) {
      terms.emplace_back(x_var[static_cast<std::size_t>(u)], 1.0);
    } else {
      rhs -= u_const;  // move constant to the rhs
    }
    if (v_isvar) {
      terms.emplace_back(x_var[static_cast<std::size_t>(v)], -1.0);
    } else {
      rhs += v_const;
    }
    if (terms.empty()) {
      QNET_CHECK(u_const <= v_const + 1e-6, "pinned times violate ordering");
      return;
    }
    lp.AddConstraint(std::move(terms), LpRelation::kLessEqual, rhs);
  };

  // Begin-service and epigraph variables, per event: b_e >= a_e, b_e >= x_rho(e),
  // s_e = x_e - b_e >= 0, u_e >= s_e - m_q, u_e >= m_q - s_e.
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    const Event& ev = log.At(e);
    const int b = lp.AddVariable("b" + std::to_string(e), 0.0);
    const int u = lp.AddVariable("u" + std::to_string(e), 0.0);
    const double target = 1.0 / rates[static_cast<std::size_t>(ev.queue)];
    lp.SetObjective(u, 1.0);
    lp.SetObjective(b, epsilon);

    // b >= arrival (x_pi for non-initial; 0 for initial events, already implied by b >= 0).
    if (!ev.initial) {
      const auto [pvar, pconst] = x_term(ev.pi);
      if (pvar) {
        lp.AddConstraint({{b, 1.0}, {x_var[static_cast<std::size_t>(ev.pi)], -1.0}},
                         LpRelation::kGreaterEqual, 0.0);
      } else {
        lp.AddConstraint({{b, 1.0}}, LpRelation::kGreaterEqual, pconst);
      }
    }
    if (ev.rho != kNoEvent) {
      const auto [rvar, rconst] = x_term(ev.rho);
      if (rvar) {
        lp.AddConstraint({{b, 1.0}, {x_var[static_cast<std::size_t>(ev.rho)], -1.0}},
                         LpRelation::kGreaterEqual, 0.0);
      } else {
        lp.AddConstraint({{b, 1.0}}, LpRelation::kGreaterEqual, rconst);
      }
    }
    // s_e = x_e - b >= 0 and the |s - m| epigraph.
    const auto [evar, econst] = x_term(e);
    if (evar) {
      const int xe = x_var[static_cast<std::size_t>(e)];
      lp.AddConstraint({{xe, 1.0}, {b, -1.0}}, LpRelation::kGreaterEqual, 0.0);
      lp.AddConstraint({{u, 1.0}, {xe, -1.0}, {b, 1.0}}, LpRelation::kGreaterEqual, -target);
      lp.AddConstraint({{u, 1.0}, {xe, 1.0}, {b, -1.0}}, LpRelation::kGreaterEqual, target);
    } else {
      lp.AddConstraint({{b, 1.0}}, LpRelation::kLessEqual, econst);
      lp.AddConstraint({{u, 1.0}, {b, 1.0}}, LpRelation::kGreaterEqual, econst - target);
      lp.AddConstraint({{u, 1.0}, {b, -1.0}}, LpRelation::kGreaterEqual, target - econst);
    }
  }

  // Ordering constraints (the DAG edges).
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    const Event& ev = log.At(e);
    if (!ev.initial) {
      add_le2(ev.pi, e);
    }
    if (ev.rho != kNoEvent) {
      add_le2(ev.rho, e);
      const Event& rho = log.At(ev.rho);
      if (!ev.initial && !rho.initial) {
        add_le2(rho.pi, ev.pi);
      }
    }
  }

  SimplexSolver solver;
  const LpSolution solution = solver.Solve(lp);
  QNET_CHECK(solution.status == LpStatus::kOptimal, "initializer LP did not solve: status=",
             static_cast<int>(solution.status));

  std::vector<double> x(n, 0.0);
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    const std::size_t ei = static_cast<std::size_t>(e);
    x[ei] = windows.pinned[ei] != 0 ? windows.pin_value[ei]
                                    : solution.values[static_cast<std::size_t>(x_var[ei])];
  }
  return x;
}

}  // namespace

void InitializeFeasibleInto(const EventLog& truth, const Observation& obs,
                            std::span<const double> rates, Rng& rng,
                            const InitializerOptions& options, InitializerScratch& scratch,
                            EventLog& state) {
  obs.Validate(truth);
  QNET_CHECK(static_cast<std::size_t>(truth.NumQueues()) == rates.size(),
             "rates size mismatch");
  BuildConstraintGraph(truth, scratch);
  TopologicalOrderInto(truth.NumEvents(), scratch);
  ComputeWindows(truth, obs, scratch);
  if (options.method == InitMethod::kGreedy) {
    AssignGreedy(truth, rates, rng, scratch);
  } else {
    scratch.x = AssignLp(truth, scratch, rates, options.lp_epsilon);
  }

  state.CopyFrom(truth);  // structure; all times overwritten below
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    const Event& ev = truth.AtUnchecked(e);
    state.SetDepartureUnchecked(e, scratch.x[static_cast<std::size_t>(e)]);
    if (ev.initial) {
      state.SetArrivalUnchecked(e, 0.0);
    } else {
      state.SetArrivalUnchecked(e, scratch.x[static_cast<std::size_t>(ev.pi)]);
    }
  }
  std::string why;
  QNET_CHECK(state.IsFeasible(options.tol, &why), "initializer produced infeasible state: ",
             why);
}

EventLog InitializeFeasible(const EventLog& truth, const Observation& obs,
                            std::span<const double> rates, Rng& rng,
                            const InitializerOptions& options) {
  InitializerScratch scratch;
  EventLog state(truth.NumQueues());
  InitializeFeasibleInto(truth, obs, rates, rng, options, scratch, state);
  return state;
}

}  // namespace qnet
