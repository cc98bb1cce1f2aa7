#include "qnet/infer/conditional.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "qnet/support/check.h"
#include "qnet/support/logspace.h"

namespace qnet {

ArrivalMove GatherArrivalMove(const EventLog& log, EventId e, std::span<const double> rates) {
  QNET_CHECK(static_cast<std::size_t>(log.NumQueues()) == rates.size(), "rate vector size");
  return GatherArrivalMoveUnchecked(log, e, rates);
}

PiecewiseExpDensity BuildArrivalDensity(const ArrivalMove& move) {
  PiecewiseExpDensity density;
  BuildArrivalSegmentsInto(move, density);
  density.Finalize();
  return density;
}

double SampleArrivalClosedForm(const ArrivalMove& move, Rng& rng) {
  QNET_CHECK(move.has_t1 && move.has_nu_pi && !move.rho_is_pi,
             "closed form requires the full Figure-3 neighborhood");
  const double L = move.lower;
  const double U = move.upper;
  QNET_CHECK(L < U, "empty conditional window");
  const double mu_e = move.mu_e;
  const double mu_pi = move.mu_pi;
  // Paper notation: A/B bracket the middle piece; delta_mu = mu_pi - mu_e gives the middle
  // slope -(delta_mu) when d_rho(e) < a_nu(pi).
  const double a_break = std::clamp(std::min(move.t1, move.t2), L, U);
  const double b_break = std::clamp(std::max(move.t1, move.t2), L, U);
  const double delta_mu = mu_pi - mu_e;

  // Piece masses, in log space (the published formulas exponentiate mu*t directly; we keep
  // their structure but normalize stably).
  const double log_z1 =
      LogIntegralExpLinear(move.LogG(0.5 * (L + a_break)) + mu_pi * 0.5 * (L + a_break),
                           -mu_pi, L, a_break);
  const double middle_beta = (move.t1 < move.t2) ? (mu_e - mu_pi) : 0.0;
  const double log_z2 =
      (a_break < b_break)
          ? LogIntegralExpLinear(
                move.LogG(0.5 * (a_break + b_break)) - middle_beta * 0.5 * (a_break + b_break),
                middle_beta, a_break, b_break)
          : kNegInf;
  const double log_z3 =
      LogIntegralExpLinear(move.LogG(0.5 * (b_break + U)) - mu_e * 0.5 * (b_break + U), mu_e,
                           b_break, U);
  const std::array<double, 3> piece_masses{log_z1, log_z2, log_z3};
  const double log_z = LogSumExp(piece_masses);

  const double u_case = rng.Uniform();
  const double v = rng.Uniform();
  const double p1 = std::exp(log_z1 - log_z);
  const double p2 = std::exp(log_z2 - log_z);

  if (u_case < p1) {
    // Case 1 of eq. (3): inverse CDF of exp(-mu_pi * a) on (L, A).
    const double lo_term = std::exp(-mu_pi * (L - L));  // = 1; anchor at L for stability
    const double hi_term = std::exp(-mu_pi * (a_break - L));
    return L - std::log(lo_term + v * (hi_term - lo_term)) / mu_pi;
  }
  if (u_case < p1 + p2) {
    // Case 2, eq. (4).
    if (move.t1 >= move.t2 || delta_mu == 0.0) {
      return a_break + v * (b_break - a_break);
    }
    const double width = b_break - a_break;
    if (delta_mu > 0.0) {
      // Density decreasing from A: A + TrExp(|delta_mu|; B - A).
      return a_break + SampleExpLinear(-delta_mu, 0.0, width, v);
    }
    // Density increasing toward B: B - TrExp(|delta_mu|; B - A).
    return b_break - SampleExpLinear(delta_mu, 0.0, width, v);
  }
  // Case 3 of eq. (3): inverse CDF of exp(+mu_e * a) on (B, U), anchored at U.
  const double lo_term = std::exp(mu_e * (b_break - U));
  const double hi_term = 1.0;
  return U + std::log(lo_term + v * (hi_term - lo_term)) / mu_e;
}

FinalDepartureMove GatherFinalDepartureMove(const EventLog& log, EventId e,
                                            std::span<const double> rates) {
  QNET_CHECK(static_cast<std::size_t>(log.NumQueues()) == rates.size(), "rate vector size");
  return GatherFinalDepartureMoveUnchecked(log, e, rates);
}

PiecewiseExpDensity BuildFinalDepartureDensity(const FinalDepartureMove& move) {
  PiecewiseExpDensity density;
  BuildFinalDepartureSegmentsInto(move, density);
  density.Finalize();
  return density;
}

}  // namespace qnet
