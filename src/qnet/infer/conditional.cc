#include "qnet/infer/conditional.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

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

namespace {

// Bit blends on all-ones / all-zero masks (see ConditionalTile).
std::uint64_t MaskOf(bool c) { return c ? ~0ull : 0ull; }
double Blend(std::uint64_t mask, double if_set, double if_clear) {
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(if_set) & mask) |
                               (std::bit_cast<std::uint64_t>(if_clear) & ~mask));
}

}  // namespace

void BuildSegmentRows(const ConditionalTile& tile, std::size_t n,
                      PiecewiseExpBatch::SegmentRows& rows) {
  QNET_CHECK(n <= ConditionalTile::kLanes, "tile holds at most ", ConditionalTile::kLanes,
             " moves");
  constexpr std::size_t kW = PiecewiseExpBatch::kMaxMoves;
  std::uint64_t bad = 0;
  for (std::size_t l = 0; l < n; ++l) {
    const double lo = tile.lower[l];
    const double up = tile.upper[l];
    const double mu_e = tile.mu_e[l];
    const double mu_o = tile.mu_other[l];
    const double d_e = tile.d_e[l];
    const double start = tile.start[l];
    const double t1 = tile.t1[l];
    const double t2 = tile.t2[l];
    const double d_next = tile.d_next[l];
    const std::uint64_t has_t1 = tile.has_t1[l];
    const std::uint64_t has_t2 = tile.has_t2[l];
    const std::uint64_t final_move = tile.final_move[l];
    const std::uint64_t live = tile.live[l];

    // Arrival: the cuts strictly inside (L, U), ordered — BuildArrivalSegmentsInto's
    // [L, t1?, t2?, U] with its one swap. Interior cuts can only coincide with each other
    // (t1 == t2), whose zero-width middle segment the builder skips, leaving [L, t1] and
    // [t2, U].
    const std::uint64_t in1 = has_t1 & MaskOf(t1 > lo) & MaskOf(t1 < up);
    const std::uint64_t in2 = has_t2 & MaskOf(t2 > lo) & MaskOf(t2 < up);
    const std::uint64_t both = in1 & in2;
    const std::uint64_t swap = both & MaskOf(t2 < t1);
    const std::uint64_t equal = both & MaskOf(t1 == t2);
    const std::uint64_t one_cut = in1 | in2;
    const std::uint64_t two_cuts = both & ~equal;
    const double cut_a = Blend(in1, Blend(swap, t2, t1), t2);  // first interior cut
    const double cut_b = Blend(swap, t1, t2);                  // second, when two_cuts
    const double hi0 = Blend(one_cut, cut_a, up);
    const double lo1 = Blend(equal, t2, cut_a);
    const double hi1 = Blend(two_cuts, cut_b, up);
    // One arrival segment [sl, sh]: ArrivalMove::LogG and the builder's slope, each
    // conditional term computed and blended in (the same operations, in the same order).
    const auto arrival_segment = [&](double sl, double sh, double& alpha, double& beta) {
      const double mid = 0.5 * (sl + sh);
      double b = -mu_o;
      b = Blend(~has_t1 | MaskOf(mid > t1), b + mu_e, b);
      b = Blend(has_t2 & MaskOf(mid > t2), b + mu_o, b);
      double log_g = Blend(has_t1, -mu_e * (d_e - std::max(mid, t1)), -mu_e * (d_e - mid));
      log_g += -mu_o * (mid - start);
      log_g = Blend(has_t2, log_g + -mu_o * (d_next - std::max(mid, t2)), log_g);
      alpha = log_g - b * mid;
      beta = b;
    };
    double arr_alpha0, arr_beta0, arr_alpha1, arr_beta1, arr_alpha2, arr_beta2;
    arrival_segment(lo, hi0, arr_alpha0, arr_beta0);
    arrival_segment(lo1, hi1, arr_alpha1, arr_beta1);
    arrival_segment(cut_b, up, arr_alpha2, arr_beta2);

    // Final departure: split at t_nu when it lies inside the window, else one segment.
    const std::uint64_t split = has_t2 & MaskOf(t2 > lo) & MaskOf(t2 < up);
    const auto final_log_g = [&](double d) {
      const double log_g = -mu_e * (d - start);
      return Blend(has_t2, log_g + -mu_e * (d_next - std::max(t2, d)), log_g);
    };
    const double mid1 = 0.5 * (lo + t2);
    const double mid2 = 0.5 * (t2 + up);
    const std::uint64_t bounded = MaskOf(std::isfinite(up));
    const double probe = Blend(bounded, 0.5 * (lo + up), lo + 1.0);
    const double whole_beta = Blend(has_t2 & MaskOf(t2 <= lo), 0.0, -mu_e);
    const double split_alpha0 = final_log_g(mid1) + mu_e * mid1;
    const double split_alpha1 = final_log_g(mid2);
    const double whole_alpha = final_log_g(probe) - whole_beta * probe;
    bad |= live & (~MaskOf(lo < up) |
                   (final_move & ~split & ~bounded & ~MaskOf(whole_beta < 0.0)));

    rows.lo[l] = lo;
    rows.hi[l] = Blend(final_move, Blend(split, t2, up), hi0);
    rows.alpha[l] = Blend(final_move, Blend(split, split_alpha0, whole_alpha), arr_alpha0);
    rows.beta[l] = Blend(final_move, Blend(split, -mu_e, whole_beta), arr_beta0);
    rows.lo[kW + l] = Blend(final_move, t2, lo1);
    rows.hi[kW + l] = Blend(final_move, up, hi1);
    rows.alpha[kW + l] = Blend(final_move, split_alpha1, arr_alpha1);
    rows.beta[kW + l] = Blend(final_move, 0.0, arr_beta1);
    rows.lo[2 * kW + l] = cut_b;
    rows.hi[2 * kW + l] = up;
    rows.alpha[2 * kW + l] = arr_alpha2;
    rows.beta[2 * kW + l] = arr_beta2;
    const std::uint64_t final_count = 1 + (split & 1);
    const std::uint64_t arrival_count = 1 + (one_cut & 1) + (two_cuts & 1);
    rows.counts[l] = static_cast<std::uint32_t>(
        ((final_move & final_count) | (~final_move & arrival_count)) & live);
  }
  QNET_CHECK(bad == 0,
             "empty conditional window, or an unbounded final-departure window whose "
             "density does not decrease");
}

}  // namespace qnet
