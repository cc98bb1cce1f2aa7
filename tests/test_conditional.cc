// The heart of the reproduction: validation of the Gibbs conditionals (paper Section 3,
// Figure 3) against first principles.
//
//  * The true latent value always lies inside the computed feasible window (L, U).
//  * The piecewise density built from the move geometry equals exp(LogG)/Z pointwise —
//    i.e. the alpha/beta segment construction reproduces the exact conditional.
//  * The inverse-CDF sampler matches the density's own CDF (independent code paths).
//  * The literal Figure-3 closed-form transcription and the generic sampler draw from the
//    same distribution.
//  * Applying a sampled arrival keeps the event log feasible.

#include "qnet/infer/conditional.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "qnet/model/builders.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/check.h"
#include "qnet/support/logspace.h"
#include "qnet/support/math.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

struct NetCase {
  std::string name;
  int net_kind;  // 0: tandem, 1: three-tier, 2: feedback
  std::uint64_t seed;
};

EventLog SimulateCase(const NetCase& c, std::vector<double>* rates) {
  Rng rng(c.seed);
  switch (c.net_kind) {
    case 0: {
      const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0, 6.0});
      *rates = net.ExponentialRates();
      return SimulateWorkload(net, PoissonArrivals(2.0, 120), rng);
    }
    case 1: {
      ThreeTierConfig config;
      config.tier_sizes = {1, 2, 4};
      const QueueingNetwork net = MakeThreeTierNetwork(config);
      *rates = net.ExponentialRates();
      return SimulateWorkload(net, PoissonArrivals(10.0, 120), rng);
    }
    default: {
      const QueueingNetwork net = MakeFeedbackNetwork(1.0, 4.0, 0.5);
      *rates = net.ExponentialRates();
      return SimulateWorkload(net, PoissonArrivals(1.0, 120), rng);
    }
  }
}

class ConditionalGeometryTest : public ::testing::TestWithParam<NetCase> {};

TEST_P(ConditionalGeometryTest, TrueValueLiesInWindow) {
  std::vector<double> rates;
  const EventLog log = SimulateCase(GetParam(), &rates);
  std::size_t checked = 0;
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    if (log.At(e).initial) {
      continue;
    }
    const ArrivalMove move = GatherArrivalMove(log, e, rates);
    EXPECT_LE(move.lower, log.Arrival(e) + 1e-9) << "event " << e;
    EXPECT_GE(move.upper, log.Arrival(e) - 1e-9) << "event " << e;
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST_P(ConditionalGeometryTest, DensityMatchesLogGPointwise) {
  std::vector<double> rates;
  const EventLog log = SimulateCase(GetParam(), &rates);
  Rng rng(GetParam().seed + 1);
  std::size_t checked = 0;
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents() && checked < 60; ++e) {
    if (log.At(e).initial) {
      continue;
    }
    const ArrivalMove move = GatherArrivalMove(log, e, rates);
    if (!(move.upper - move.lower > 1e-9)) {
      continue;
    }
    const PiecewiseExpDensity density = BuildArrivalDensity(move);
    const double log_z = density.LogNormalizer();
    for (int i = 0; i < 10; ++i) {
      const double a = rng.Uniform(move.lower, move.upper);
      // Normalized density must equal LogG - logZ everywhere in the window.
      EXPECT_NEAR(density.LogPdf(a), move.LogG(a) - log_z, 1e-7)
          << GetParam().name << " event " << e << " a=" << a;
    }
    ++checked;
  }
  EXPECT_GT(checked, 30u);
}

TEST_P(ConditionalGeometryTest, SampledArrivalsPreserveFeasibility) {
  std::vector<double> rates;
  EventLog log = SimulateCase(GetParam(), &rates);
  Rng rng(GetParam().seed + 2);
  for (int round = 0; round < 3; ++round) {
    for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
      const Event& ev = log.At(e);
      if (ev.initial) {
        continue;
      }
      const ArrivalMove move = GatherArrivalMove(log, e, rates);
      if (!(move.upper - move.lower > kDegenerateWindow)) {
        continue;  // the kernels pin these to the window's midpoint
      }
      const double a = BuildArrivalDensity(move).Sample(rng);
      ASSERT_GE(a, move.lower - 1e-9);
      ASSERT_LE(a, move.upper + 1e-9);
      log.SetArrival(e, a);
      log.SetDeparture(ev.pi, a);
    }
    for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
      const Event& ev = log.At(e);
      if (ev.tau == kNoEvent) {
        const FinalDepartureMove move = GatherFinalDepartureMove(log, e, rates);
        if (std::isfinite(move.upper) && !(move.upper - move.lower > kDegenerateWindow)) {
          continue;
        }
        log.SetDeparture(e, BuildFinalDepartureDensity(move).Sample(rng));
      }
    }
    std::string why;
    ASSERT_TRUE(log.IsFeasible(1e-7, &why)) << GetParam().name << " round " << round
                                            << ": " << why;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Networks, ConditionalGeometryTest,
    ::testing::Values(NetCase{"tandem", 0, 101}, NetCase{"three_tier", 1, 202},
                      NetCase{"feedback", 2, 303}),
    [](const ::testing::TestParamInfo<NetCase>& param_info) { return param_info.param.name; });

// A fully-populated neighborhood with both breakpoints interior, built by hand so every
// branch of the three-piece structure carries mass.
ArrivalMove MakeFullMove(double mu_e, double mu_pi) {
  ArrivalMove move;
  move.event = 0;
  move.d_e = 10.0;
  move.mu_e = mu_e;
  move.mu_pi = mu_pi;
  move.c_pi = 1.0;
  move.has_t1 = true;
  move.t1 = 4.0;  // d_rho(e)
  move.has_nu_pi = true;
  move.t2 = 6.0;       // a_nu(pi)
  move.d_nu_pi = 9.0;  // d_nu(pi)
  move.lower = 1.5;    // max(c_pi, a_rho(e))
  move.upper = 8.5;    // min(d_e, a_nu(e), d_nu(pi))
  return move;
}

TEST(ArrivalConditional, SamplerMatchesOwnCdfByKs) {
  const ArrivalMove move = MakeFullMove(2.0, 3.0);
  const PiecewiseExpDensity density = BuildArrivalDensity(move);
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 8000; ++i) {
    xs.push_back(density.Sample(rng));
  }
  const double d = KsStatistic(xs, [&](double x) { return density.Cdf(x); });
  EXPECT_GT(KsPValue(d, xs.size()), 1e-4) << "d=" << d;
}

class ClosedFormTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(ClosedFormTest, MatchesGenericSampler) {
  // delta_mu > 0, == 0, < 0 middle-piece regimes, both breakpoint orders.
  const auto [mu_e, mu_pi] = GetParam();
  for (bool swap_breaks : {false, true}) {
    ArrivalMove move = MakeFullMove(mu_e, mu_pi);
    if (swap_breaks) {
      std::swap(move.t1, move.t2);  // now a_nu(pi) < d_rho(e): uniform middle piece
    }
    const PiecewiseExpDensity density = BuildArrivalDensity(move);
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 6000; ++i) {
      const double x = SampleArrivalClosedForm(move, rng);
      ASSERT_GE(x, move.lower - 1e-9);
      ASSERT_LE(x, move.upper + 1e-9);
      xs.push_back(x);
    }
    const double d = KsStatistic(xs, [&](double x) { return density.Cdf(x); });
    EXPECT_GT(KsPValue(d, xs.size()), 1e-4)
        << "mu_e=" << mu_e << " mu_pi=" << mu_pi << " swapped=" << swap_breaks << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaMuRegimes, ClosedFormTest,
                         ::testing::Values(std::make_pair(2.0, 3.0),   // delta_mu > 0
                                           std::make_pair(3.0, 3.0),   // delta_mu == 0
                                           std::make_pair(4.0, 1.5))); // delta_mu < 0

TEST(ArrivalConditional, BreakpointsOutsideWindowCollapseToFewerPieces) {
  ArrivalMove move = MakeFullMove(2.0, 3.0);
  move.t1 = 0.5;  // below lower
  move.t2 = 9.5;  // above upper
  const PiecewiseExpDensity density = BuildArrivalDensity(move);
  EXPECT_EQ(density.NumSegments(), 1u);
  // Slope there: +mu_e (past t1) - mu_pi (s_pi) + 0 (before t2) = 2 - 3 = -1.
  EXPECT_NEAR(density.Segment(0).beta, -1.0, 1e-12);
}

TEST(ArrivalConditional, MissingNeighborsDropTermsAndBounds) {
  ArrivalMove move = MakeFullMove(2.0, 3.0);
  move.has_t1 = false;  // first event at its queue: service runs from a
  move.has_nu_pi = false;
  const PiecewiseExpDensity density = BuildArrivalDensity(move);
  EXPECT_EQ(density.NumSegments(), 1u);
  // Slope: +mu_e - mu_pi everywhere.
  EXPECT_NEAR(density.Segment(0).beta, -1.0, 1e-12);
  // LogG consistency still holds.
  const double a = 5.0;
  EXPECT_NEAR(density.LogPdf(a), move.LogG(a) - density.LogNormalizer(), 1e-9);
}

TEST(ArrivalConditional, ConsecutiveSameQueueVisitsAreFlat) {
  // rho(e) == pi(e) with equal rates: the conditional is uniform on the window.
  const QueueingNetwork net = MakeFeedbackNetwork(1.0, 4.0, 0.9);
  const auto rates = net.ExponentialRates();
  Rng rng(13);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 60), rng);
  bool found = false;
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    const Event& ev = log.At(e);
    if (ev.initial || ev.rho == kNoEvent || ev.rho != ev.pi) {
      continue;
    }
    const ArrivalMove move = GatherArrivalMove(log, e, rates);
    EXPECT_TRUE(move.rho_is_pi);
    if (!(move.upper - move.lower > 1e-9)) {
      continue;
    }
    const PiecewiseExpDensity density = BuildArrivalDensity(move);
    for (std::size_t s = 0; s < density.NumSegments(); ++s) {
      EXPECT_NEAR(density.Segment(s).beta, 0.0, 1e-9);
    }
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FinalDepartureConditional, DensityMatchesLogG) {
  FinalDepartureMove move;
  move.event = 0;
  move.mu_e = 2.5;
  move.c_e = 3.0;
  move.has_nu = true;
  move.t_nu = 4.0;
  move.d_nu = 7.0;
  move.lower = 3.0;
  move.upper = 7.0;
  const PiecewiseExpDensity density = BuildFinalDepartureDensity(move);
  const double log_z = density.LogNormalizer();
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    const double d = rng.Uniform(3.0, 7.0);
    EXPECT_NEAR(density.LogPdf(d), move.LogG(d) - log_z, 1e-9) << "d=" << d;
  }
  // Above t_nu the density is flat (the two exponential terms cancel).
  EXPECT_NEAR(density.LogPdf(5.0), density.LogPdf(6.5), 1e-9);
  EXPECT_GT(density.LogPdf(3.1), density.LogPdf(3.9));
}

TEST(FinalDepartureConditional, UnboundedTailIsShiftedExponential) {
  FinalDepartureMove move;
  move.event = 0;
  move.mu_e = 4.0;
  move.c_e = 2.0;
  move.has_nu = false;
  move.lower = 2.0;
  move.upper = kPosInf;
  const PiecewiseExpDensity density = BuildFinalDepartureDensity(move);
  Rng rng(23);
  RunningStat rs;
  for (int i = 0; i < 100000; ++i) {
    const double d = density.Sample(rng);
    ASSERT_GE(d, 2.0);
    rs.Add(d);
  }
  EXPECT_NEAR(rs.Mean(), 2.25, 0.01);  // c_e + 1/mu
}

TEST(FinalDepartureConditional, GatherRejectsNonFinalEvents) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 4.0});
  const auto rates = net.ExponentialRates();
  Rng rng(29);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 10), rng);
  const EventId first_visit = log.TaskEvents(0)[1];
  EXPECT_THROW(GatherFinalDepartureMove(log, first_visit, rates), Error);
}

TEST(ArrivalConditional, GatherRejectsInitialEvents) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0});
  const auto rates = net.ExponentialRates();
  Rng rng(31);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 10), rng);
  EXPECT_THROW(GatherArrivalMove(log, log.TaskEvents(0)[0], rates), Error);
}

TEST(ArrivalConditional, NumericIntegrationCrossCheck) {
  // Independent validation: CDF from trapezoid integration of exp(LogG).
  const ArrivalMove move = MakeFullMove(2.5, 1.5);
  const PiecewiseExpDensity density = BuildArrivalDensity(move);
  const int steps = 200000;
  const double h = (move.upper - move.lower) / steps;
  double mass = 0.0;
  std::vector<std::pair<double, double>> checkpoints;  // (x, numeric cdf)
  double next_check = move.lower + 1.0;
  const double log_z = density.LogNormalizer();
  for (int i = 0; i <= steps; ++i) {
    const double x = move.lower + i * h;
    const double w = (i == 0 || i == steps) ? 0.5 : 1.0;
    mass += w * std::exp(move.LogG(x) - log_z);
    if (x >= next_check) {
      checkpoints.emplace_back(x, mass * h);
      next_check += 1.0;
    }
  }
  EXPECT_NEAR(mass * h, 1.0, 1e-3);
  for (const auto& [x, numeric_cdf] : checkpoints) {
    EXPECT_NEAR(density.Cdf(x), numeric_cdf, 2e-3) << "x=" << x;
  }
}

}  // namespace
}  // namespace qnet
