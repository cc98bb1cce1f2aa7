// Event-local Gibbs conditionals (paper Section 3, Figures 2 and 3).
//
// Arrival move. Resampling the arrival time a_e of a non-initial event e is equivalent to
// resampling the departure d_pi(e) of its within-task predecessor, because a_e = d_pi(e).
// Holding every other time and the per-queue arrival order fixed, changing a := a_e changes
// exactly three derived service times (Figure 2):
//     s_e        = d_e - max(a, d_rho(e))                     [rate mu_e]
//     s_pi       = a - max(a_pi, d_rho(pi))  =: a - c_pi      [rate mu_pi]
//     s_nu(pi)   = d_nu(pi) - max(a_nu(pi), a)                [rate mu_pi]
// where nu(pi) is the next arrival at pi's queue. The conditional density is
//     g(a) = exp{-mu_e s_e(a) - mu_pi s_pi(a) - mu_pi s_nu(pi)(a)}   on (L, U),
//     L = max{c_pi, a_rho(e)},      U = min{d_e, a_nu(e), d_nu(pi)},
// a piecewise-exponential density whose breakpoints are t1 = d_rho(e) and t2 = a_nu(pi)
// (the paper's A = min(t1, t2), B = max(t1, t2)).
//
// Special cases handled here that the paper's Figure 3 formulas assume away:
//  * missing neighbors (first/last event in a queue, last arrival at pi's queue),
//  * rho(e) == pi(e): the task re-enters the queue it just left, so s_e = d_e - a and the
//    "third" service time *is* s_e (the terms merge; the conditional is flat in between),
//  * pi(e) is the task's initial event, in which case mu_pi is the arrival rate lambda and
//    c_pi is the previous task's entry time (this is how entry times get resampled).
//
// Final-departure move. The departure of a task's last event is nobody's arrival, so the
// arrival move never updates it. Holding everything else fixed, changing d := d_e changes
//     s_e     = d - max(a_e, d_rho(e))  =: d - c_e            [rate mu_e]
//     s_nu(e) = d_nu(e) - max(a_nu(e), d)                     [rate mu_e]
// giving a two-piece conditional on (c_e, d_nu(e)) with breakpoint a_nu(e) (unbounded above
// when e is the last arrival at its queue).

#ifndef QNET_INFER_CONDITIONAL_H_
#define QNET_INFER_CONDITIONAL_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "qnet/infer/piecewise_exp.h"
#include "qnet/model/event.h"
#include "qnet/support/rng.h"

namespace qnet {

// Windows no wider than this are resampled as their midpoint without drawing a density
// (shared by the batched kernel and its move-at-a-time reference in infer/move_kernel.h,
// which must agree on what "degenerate" means).
inline constexpr double kDegenerateWindow = 1e-12;

struct ArrivalMove {
  EventId event = kNoEvent;

  double d_e = 0.0;    // departure of e (fixed)
  double mu_e = 0.0;   // service rate at e's queue
  double mu_pi = 0.0;  // service rate at pi's queue (lambda when pi is initial)
  double c_pi = 0.0;   // service start of pi: max(a_pi, d_rho(pi))

  bool has_t1 = false;  // rho(e) exists and differs from pi(e)
  double t1 = 0.0;      // d_rho(e)

  bool has_nu_pi = false;  // nu(pi) exists and differs from e
  double t2 = 0.0;         // a_nu(pi)
  double d_nu_pi = 0.0;    // d_nu(pi)

  bool rho_is_pi = false;  // consecutive same-queue visits: rho(e) == pi(e)

  double lower = 0.0;  // L
  double upper = 0.0;  // U

  // Exact unnormalized log conditional at a (the sum of the three service-time terms).
  // Inline: the builders evaluate it once per segment on the hot path, and keeping it
  // header-visible folds it into their loops instead of paying a cross-TU call.
  double LogG(double a) const {
    // Service of e: d_e - max(a, t1); with rho missing or rho == pi the max resolves to a.
    double log_g = has_t1 ? -mu_e * (d_e - std::max(a, t1)) : -mu_e * (d_e - a);
    // Service of pi.
    log_g += -mu_pi * (a - c_pi);
    // Service of nu(pi), when it exists and is not e itself.
    if (has_nu_pi) {
      log_g += -mu_pi * (d_nu_pi - std::max(a, t2));
    }
    return log_g;
  }
};

// Gathers the fixed neighborhood values for resampling a_e. `rates` holds mu_q for every
// queue (index 0 = lambda). CHECK-fails if e is an initial event.
ArrivalMove GatherArrivalMove(const EventLog& log, EventId e, std::span<const double> rates);

// Inline gather core over resolved geometry (rate-span size is the caller's
// responsibility — the batched kernel validates once per bucket and then runs a whole tile
// of these back to back, letting the compiler overlap the loads of neighboring moves).
// Every neighbour id comes from `g`, so the only Event struct read is e's own (d_e and the
// initial-event check); the neighbours contribute their times.
inline ArrivalMove GatherArrivalMoveFrom(const EventLog& log, EventId e, const MoveGeometry& g,
                                         std::span<const double> rates) {
  // Inner-loop contract: every access below is *Unchecked (bounds DCHECK-only); this is
  // called once per latent coordinate per sweep.
  const Event& ev = log.AtUnchecked(e);
  QNET_CHECK(!ev.initial, "cannot resample the arrival of an initial event");

  ArrivalMove move;
  move.event = e;
  move.d_e = ev.departure;
  move.mu_e = rates[static_cast<std::size_t>(g.queue)];
  move.mu_pi = rates[static_cast<std::size_t>(g.pi_queue)];
  // c_pi = BeginService(pi) = max(a_pi, d_rho(pi)), the same expression.
  const double a_pi = log.ArrivalUnchecked(g.pi);
  move.c_pi = g.rho_pi == kNoEvent ? a_pi : std::max(a_pi, log.DepartureUnchecked(g.rho_pi));

  move.rho_is_pi = (g.rho == g.pi);
  if (g.rho != kNoEvent && !move.rho_is_pi) {
    move.has_t1 = true;
    move.t1 = log.DepartureUnchecked(g.rho);
  }

  // nu(pi): the next arrival at pi's queue. When it is e itself (consecutive same-queue
  // visits) its service time is s_e, already accounted for by the first term.
  if (g.nu_pi != kNoEvent && g.nu_pi != e) {
    move.has_nu_pi = true;
    move.t2 = log.ArrivalUnchecked(g.nu_pi);
    move.d_nu_pi = log.DepartureUnchecked(g.nu_pi);
  }

  // Bounds: L = max{c_pi, a_rho(e)}; U = min{d_e, a_nu(e), d_nu(pi)}.
  double lower = move.c_pi;
  if (g.rho != kNoEvent) {
    lower = std::max(lower, log.ArrivalUnchecked(g.rho));
  }
  double upper = move.d_e;
  if (g.nu != kNoEvent) {
    upper = std::min(upper, log.ArrivalUnchecked(g.nu));
  }
  if (move.has_nu_pi) {
    upper = std::min(upper, move.d_nu_pi);
  }
  move.lower = lower;
  move.upper = upper;
  return move;
}

// The per-move form: resolve the geometry from the links, then the geometry gather.
// GatherArrivalMove is this plus a per-call rate-size check.
inline ArrivalMove GatherArrivalMoveUnchecked(const EventLog& log, EventId e,
                                              std::span<const double> rates) {
  return GatherArrivalMoveFrom(log, e, log.ResolveArrivalGeometryUnchecked(e), rates);
}

// Emits the conditional's segments into any density sink with an
// AddSegment(lo, hi, alpha, beta) surface — PiecewiseExpDensity for the scalar path, an
// open PiecewiseExpBatch move slot for the batched kernel. One definition of the
// breakpoint/slope logic keeps the two paths identical by construction. Forced inline:
// GCC otherwise compiles the batch instance out of line, so every move of the tile loop
// pays a call and round-trips its ArrivalMove through memory (inlining measured ~1.1x
// on a whole StEM window, same bits).
template <typename Density>
[[gnu::always_inline]] inline void BuildArrivalSegmentsInto(const ArrivalMove& move,
                                                            Density& density) {
  QNET_CHECK(move.lower < move.upper, "empty conditional window: L=", move.lower,
             " U=", move.upper);
  // Breakpoints inside (L, U) where a max() changes branch: at most lower, t1, t2, upper.
  std::array<double, 4> cuts;
  std::size_t num_cuts = 0;
  cuts[num_cuts++] = move.lower;
  if (move.has_t1 && move.t1 > move.lower && move.t1 < move.upper) {
    cuts[num_cuts++] = move.t1;
  }
  if (move.has_nu_pi && move.t2 > move.lower && move.t2 < move.upper) {
    cuts[num_cuts++] = move.t2;
  }
  cuts[num_cuts++] = move.upper;
  // cuts[0] == lower and cuts[num_cuts-1] == upper already bracket the interior cuts
  // (t1/t2 are only added when strictly inside the window), so ordering needs at most
  // one swap — when both interior cuts are present and t2 < t1.
  if (num_cuts == 4 && cuts[2] < cuts[1]) {
    std::swap(cuts[1], cuts[2]);
  }

  for (std::size_t i = 0; i + 1 < num_cuts; ++i) {
    const double lo = cuts[i];
    const double hi = cuts[i + 1];
    if (!(lo < hi)) {
      continue;
    }
    const double mid = 0.5 * (lo + hi);
    // Slope of log g on this segment, from the indicator structure:
    //   +mu_e   once a > t1 (or always, when the first max resolves to a),
    //   -mu_pi  from s_pi,
    //   +mu_pi  once a > t2 (when nu(pi) exists).
    double beta = -move.mu_pi;
    if (!move.has_t1 || mid > move.t1) {
      beta += move.mu_e;
    }
    if (move.has_nu_pi && mid > move.t2) {
      beta += move.mu_pi;
    }
    const double alpha = move.LogG(mid) - beta * mid;
    density.AddSegment(lo, hi, alpha, beta);
  }
}

// Builds the normalized piecewise-exponential conditional a_e | everything else; its
// Sample(rng) draws the move. Requires lower < upper (the kernels resample degenerate
// windows as their midpoint instead). The returned density lives entirely on the stack
// (inline segment storage); the whole gather→build→sample path performs zero heap
// allocations.
PiecewiseExpDensity BuildArrivalDensity(const ArrivalMove& move);

// Literal transcription of the paper's Figure 3 closed form (cases Z1/Z2/Z3 with the
// inverse-CDF expressions (3) and the A2 cases (4)). Requires the fully-populated
// neighborhood the paper assumes (has_t1 && has_nu_pi && !rho_is_pi). Used by property
// tests to pin the generic sampler to the published algorithm; note the published formulas
// exponentiate mu*t directly and therefore overflow for large times — production code uses
// BuildArrivalDensity.
double SampleArrivalClosedForm(const ArrivalMove& move, Rng& rng);

struct FinalDepartureMove {
  EventId event = kNoEvent;
  double mu_e = 0.0;
  double c_e = 0.0;  // service start of e: max(a_e, d_rho(e))

  bool has_nu = false;  // nu(e) exists
  double t_nu = 0.0;    // a_nu(e)
  double d_nu = 0.0;    // d_nu(e)

  double lower = 0.0;  // c_e
  double upper = 0.0;  // d_nu(e) or +infinity

  double LogG(double d) const {
    double log_g = -mu_e * (d - c_e);
    if (has_nu) {
      log_g += -mu_e * (d_nu - std::max(t_nu, d));
    }
    return log_g;
  }
};

// Gathers the neighborhood for resampling the final departure of a task's last event.
// CHECK-fails if e has a within-task successor (its departure is then an arrival and must be
// resampled with the arrival move).
FinalDepartureMove GatherFinalDepartureMove(const EventLog& log, EventId e,
                                            std::span<const double> rates);

// Geometry gather for the final-departure move; see GatherArrivalMoveFrom.
inline FinalDepartureMove GatherFinalDepartureMoveFrom(const EventLog& log, EventId e,
                                                       const MoveGeometry& g,
                                                       std::span<const double> rates) {
  const Event& ev = log.AtUnchecked(e);
  QNET_CHECK(ev.tau == kNoEvent,
             "event has a within-task successor; use the arrival move on tau instead");
  FinalDepartureMove move;
  move.event = e;
  move.mu_e = rates[static_cast<std::size_t>(g.queue)];
  // c_e = BeginService(e) = max(a_e, d_rho(e)), the same expression.
  move.c_e = g.rho == kNoEvent ? ev.arrival
                               : std::max(ev.arrival, log.DepartureUnchecked(g.rho));
  if (g.nu != kNoEvent) {
    move.has_nu = true;
    move.t_nu = log.ArrivalUnchecked(g.nu);
    move.d_nu = log.DepartureUnchecked(g.nu);
    move.upper = move.d_nu;
  } else {
    move.upper = kPosInf;
  }
  move.lower = move.c_e;
  return move;
}

// Resolve from the links, then the geometry gather; see GatherArrivalMoveUnchecked.
inline FinalDepartureMove GatherFinalDepartureMoveUnchecked(const EventLog& log, EventId e,
                                                            std::span<const double> rates) {
  return GatherFinalDepartureMoveFrom(log, e, log.ResolveFinalDepartureGeometryUnchecked(e),
                                      rates);
}

// Segment emission for the final-departure conditional; see BuildArrivalSegmentsInto.
template <typename Density>
[[gnu::always_inline]] inline void BuildFinalDepartureSegmentsInto(
    const FinalDepartureMove& move, Density& density) {
  QNET_CHECK(move.lower < move.upper, "empty conditional window");
  // Below t_nu the second service still starts at t_nu: slope -mu_e. Above, the two terms
  // cancel: slope 0 (the nu(e) service shrinks exactly as s_e grows).
  if (move.has_nu && move.t_nu > move.lower && move.t_nu < move.upper) {
    const double mid1 = 0.5 * (move.lower + move.t_nu);
    density.AddSegment(move.lower, move.t_nu, move.LogG(mid1) + move.mu_e * mid1, -move.mu_e);
    const double mid2 = 0.5 * (move.t_nu + move.upper);
    density.AddSegment(move.t_nu, move.upper, move.LogG(mid2), 0.0);
  } else {
    const double probe = std::isfinite(move.upper)
                             ? 0.5 * (move.lower + move.upper)
                             : move.lower + 1.0;
    double beta = -move.mu_e;
    if (move.has_nu && move.t_nu <= move.lower) {
      beta = 0.0;  // Entire window is above the breakpoint: flat.
    }
    QNET_CHECK(std::isfinite(move.upper) || beta < 0.0,
               "unbounded final-departure window needs decreasing density");
    density.AddSegment(move.lower, move.upper, move.LogG(probe) - beta * probe, beta);
  }
}

// The conditional d_e | everything else, as BuildArrivalDensity: requires a
// non-degenerate window.
PiecewiseExpDensity BuildFinalDepartureDensity(const FinalDepartureMove& move);

}  // namespace qnet

#endif  // QNET_INFER_CONDITIONAL_H_
