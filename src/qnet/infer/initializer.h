// Feasible initialization of the latent times (paper Section 3, last paragraph).
//
// The Gibbs sampler needs a starting assignment of every unobserved arrival/departure that
// satisfies all deterministic constraints: task continuity, nonnegative service times, the
// known per-queue arrival order, and FIFO departure order — while matching the observed
// times exactly. A task may interleave observed and unobserved visits, so an arrival can be
// constrained through both its queue and its task, which is what makes this nontrivial.
//
// Both initializers operate on the same constraint graph over departure variables
// x_e (one per event; arrivals are a_e = x_pi(e), initial arrivals are fixed at 0):
//     x_pi(e)      <= x_e   (service >= 0),
//     x_rho(e)     <= x_e   (FIFO departures),
//     x_pi(rho(e)) <= x_pi(e)   (known arrival order at e's queue),
// with observed departures pinned. This graph is a DAG (the true data order is a witness).
//
//  * kGreedy — forward assignment in topological order with exact backward upper bounds:
//    each free x_e gets max(preds) + Exp(mu_q) clipped into its feasible window. O(n log n);
//    the production default.
//  * kLp — the paper's linear program: minimize sum_e |s_e - 1/mu_qe| with begin-service
//    variables b_e >= a_e, b_e >= x_rho(e) and epigraph variables for the absolute values,
//    plus a small penalty pulling b_e down to the true max. Solved with the dense two-phase
//    simplex; intended for small/medium instances and for the ablation bench.

#ifndef QNET_INFER_INITIALIZER_H_
#define QNET_INFER_INITIALIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/support/rng.h"

namespace qnet {

enum class InitMethod { kGreedy, kLp };

struct InitializerOptions {
  InitMethod method = InitMethod::kGreedy;
  // Weight of the pull-down penalty on begin-service variables in the LP objective.
  double lp_epsilon = 1e-3;
  // Feasibility tolerance for the final state check.
  double tol = 1e-6;
};

// Reusable working memory of InitializeFeasibleInto: the constraint graph as one CSR
// (built once per call and shared by the topological sort, the window passes and the
// greedy assignment), the topological order (which doubles as Kahn's queue), the feasible
// windows and the assigned values. Every buffer is assign()ed, so an owner that keeps one
// across calls (StemWorkspace) initializes a same-sized or smaller trace without
// allocating.
struct InitializerScratch {
  std::vector<std::int32_t> succ_offsets;  // n + 1 entries
  std::vector<EventId> succ;
  std::vector<std::int32_t> cursor;  // CSR fill cursor, then Kahn in-degrees
  std::vector<EventId> order;
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<char> pinned;
  std::vector<double> pin_value;
  std::vector<double> pred_max;
  std::vector<double> x;  // assigned departure of every event
};

// Writes into `state` a copy of `truth` whose unobserved times are replaced with a
// feasible assignment (see InitializeFeasible), using `scratch` for all working memory
// and reusing `state`'s buffers (EventLog::CopyFrom). Same values and the same draws from
// `rng` as InitializeFeasible.
void InitializeFeasibleInto(const EventLog& truth, const Observation& obs,
                            std::span<const double> rates, Rng& rng,
                            const InitializerOptions& options, InitializerScratch& scratch,
                            EventLog& state);

// Returns a copy of `truth` whose unobserved times are replaced with a feasible assignment.
// Only observed times and the structure (routes, per-queue order) of `truth` are consulted;
// unobserved true times never leak into the result. `rates` holds mu_q with index 0 =
// lambda (used as the service-time targets).
EventLog InitializeFeasible(const EventLog& truth, const Observation& obs,
                            std::span<const double> rates, Rng& rng,
                            const InitializerOptions& options = {});

// The topological order of the constraint graph (exposed for tests).
std::vector<EventId> ConstraintTopologicalOrder(const EventLog& log);

}  // namespace qnet

#endif  // QNET_INFER_INITIALIZER_H_
