// Scenario engine: grid expansion, cell realization, posterior-predictive evaluation
// (thread-count bit-equality, analytic-vs-DES agreement, load-axis monotonicity),
// report CSV round-trips, and the streaming forecast hook.

#include "qnet/scenario/scenario_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <string>

#include "qnet/dist/gamma.h"
#include "qnet/infer/mg1.h"
#include "qnet/infer/mm1.h"
#include "qnet/model/builders.h"
#include "qnet/scenario/forecast.h"
#include "qnet/scenario/parameter_posterior.h"
#include "qnet/scenario/scenario_spec.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/support/check.h"
#include "qnet/support/math.h"
#include "qnet/support/rng.h"
#include "qnet/trace/scenario_report.h"

namespace qnet {
namespace {

ScenarioAxis LoadAxis(std::vector<double> values) {
  ScenarioAxis axis;
  axis.kind = AxisKind::kArrivalScale;
  axis.name = "load";
  axis.values = std::move(values);
  return axis;
}

ScenarioAxis ServiceAxis(int queue, std::vector<double> values) {
  ScenarioAxis axis;
  axis.kind = AxisKind::kServiceScale;
  axis.name = "svc";
  axis.queue = queue;
  axis.values = std::move(values);
  return axis;
}

TEST(ScenarioGrid, ExpandsAxesWithAxisZeroFastest) {
  const ScenarioGrid grid({LoadAxis({1.0, 2.0, 3.0}), ServiceAxis(1, {1.0, 1.5})});
  EXPECT_EQ(grid.NumCells(), 6u);
  EXPECT_EQ(grid.NumAxes(), 2u);
  const ScenarioCell cell = grid.Cell(4);
  EXPECT_EQ(cell.coords[0], 1u);  // axis 0 varies fastest: 4 = 1 + 1*3
  EXPECT_EQ(cell.coords[1], 1u);
  EXPECT_DOUBLE_EQ(cell.values[0], 2.0);
  EXPECT_DOUBLE_EQ(cell.values[1], 1.5);
  EXPECT_THROW(grid.Cell(6), Error);
}

TEST(ScenarioGrid, EmptyAxisListIsABaselineCell) {
  const ScenarioGrid grid({});
  EXPECT_EQ(grid.NumCells(), 1u);
  EXPECT_TRUE(grid.Cell(0).values.empty());
}

TEST(ScenarioGrid, ValidatesAxes) {
  ScenarioAxis bad = LoadAxis({});
  EXPECT_THROW(ScenarioGrid({bad}), Error);
  bad = LoadAxis({-1.0});
  EXPECT_THROW(ScenarioGrid({bad}), Error);
  bad = LoadAxis({1.0});
  bad.name = "";
  EXPECT_THROW(ScenarioGrid({bad}), Error);
  EXPECT_THROW(ScenarioGrid({LoadAxis({1.0}), LoadAxis({2.0})}), Error);  // duplicate name
  ScenarioAxis servers;
  servers.kind = AxisKind::kServerCount;
  servers.name = "servers";
  servers.queue = 1;
  servers.values = {1.5};  // non-integral server count
  EXPECT_THROW(ScenarioGrid({servers}), Error);
}

TEST(ScenarioGrid, RealizeAppliesTransforms) {
  const QueueingNetwork base = MakeTandemNetwork(2.0, {5.0, 7.0});
  ScenarioAxis servers;
  servers.kind = AxisKind::kServerCount;
  servers.name = "servers";
  servers.queue = 2;
  servers.values = {3.0};
  const ScenarioGrid grid({LoadAxis({2.0}), ServiceAxis(1, {1.5}), servers});
  const CellRealization real =
      grid.Realize(base, grid.Cell(0), std::vector<double>{2.0, 5.0, 7.0});
  EXPECT_DOUBLE_EQ(real.rates[0], 4.0);   // lambda doubled
  EXPECT_DOUBLE_EQ(real.rates[1], 7.5);   // mu_1 scaled 1.5x
  EXPECT_DOUBLE_EQ(real.rates[2], 7.0);   // untouched per-server rate
  EXPECT_EQ(real.servers[2], 3);
  const auto rates = real.net.ExponentialRates();
  EXPECT_DOUBLE_EQ(rates[0], 4.0);
  EXPECT_DOUBLE_EQ(rates[1], 7.5);
  EXPECT_DOUBLE_EQ(rates[2], 21.0);  // pooled DES rate c * mu
}

TEST(ScenarioGrid, RealizeAppliesRoutingEdits) {
  // Two parallel replicas behind a uniform dispatch; scaling (state 0 -> queue 1) by 3
  // shifts the split from 1/2-1/2 to 3/4-1/4.
  ThreeTierConfig config;
  config.tier_sizes = {2};
  QueueingNetwork base = MakeThreeTierNetwork(config);
  ScenarioAxis route;
  route.kind = AxisKind::kRoutingScale;
  route.name = "shift";
  route.queue = 1;
  route.state = 0;
  route.values = {3.0};
  const ScenarioGrid grid({route});
  const CellRealization real =
      grid.Realize(base, grid.Cell(0), std::vector<double>{10.0, 5.0, 5.0});
  const Fsm& fsm = real.net.GetFsm();
  EXPECT_NEAR(fsm.Emission(0, 1), 0.75, 1e-12);
  EXPECT_NEAR(fsm.Emission(0, 2), 0.25, 1e-12);
}

TEST(ParameterPosterior, SourcesAgreeOnShapeAndMoments) {
  StemResult stem;
  stem.rate_trace = {2, {2.0, 5.0, 2.2, 5.5, 1.8, 4.5, 2.0, 5.0}};
  const ParameterPosterior posterior = ParameterPosterior::FromStem(stem, 1);
  EXPECT_EQ(posterior.NumDraws(), 3u);
  EXPECT_EQ(posterior.NumQueues(), 2);
  EXPECT_NEAR(posterior.MeanRates()[1], 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(posterior.RateQuantile(0.0)[1], 4.5);
  EXPECT_DOUBLE_EQ(posterior.RateQuantile(1.0)[1], 5.5);
  EXPECT_THROW(ParameterPosterior::FromStem(stem, 4), Error);

  const ParameterPosterior point = ParameterPosterior::FromPoint({2.0, 5.0});
  EXPECT_EQ(point.NumDraws(), 1u);
  EXPECT_DOUBLE_EQ(point.Draw(0)[1], 5.0);
  EXPECT_THROW(ParameterPosterior::FromPoint({2.0}), Error);       // no queue rate
  EXPECT_THROW(ParameterPosterior::FromPoint({2.0, -1.0}), Error); // nonpositive
}

TEST(ParameterPosterior, FromSummaryTakesTheRateDrawsInAccumulationOrder) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(31);
  PosteriorSummary summary(net.NumQueues());
  EXPECT_THROW(ParameterPosterior::FromSummary(summary), Error);  // no draws yet
  for (int i = 0; i < 4; ++i) {
    summary.Accumulate(SimulateWorkload(net, PoissonArrivals(2.0, 60), rng));
  }
  const ParameterPosterior posterior = ParameterPosterior::FromSummary(summary);
  ASSERT_EQ(posterior.NumDraws(), summary.NumSamples());
  EXPECT_EQ(posterior.NumQueues(), net.NumQueues());
  for (std::size_t i = 0; i < posterior.NumDraws(); ++i) {
    EXPECT_EQ(posterior.Draw(i), summary.RateDraw(i)) << "draw " << i;
  }
}

ScenarioReport EvaluateTandem(std::size_t threads, bool crn = false) {
  const QueueingNetwork base = MakeTandemNetwork(1.5, {6.0, 4.0});
  StemResult stem;
  stem.rate_trace = {3, {1.5, 6.0, 4.0, 1.4, 6.3, 4.2, 1.6, 5.8, 3.9}};
  ScenarioEngineOptions options;
  options.max_draws = 3;
  options.tasks_per_draw = 200;
  options.threads = threads;
  options.common_random_numbers = crn;
  ScenarioEngine engine(options);
  return engine.Evaluate(base, ParameterPosterior::FromStem(stem, 0),
                         ScenarioGrid({LoadAxis({1.0, 1.5, 2.0}), ServiceAxis(2, {1.0, 2.0})}),
                         /*seed=*/42);
}

TEST(ScenarioEngine, ReportsBitIdenticalAcrossThreadCounts) {
  const ScenarioReport one = EvaluateTandem(1);
  const ScenarioReport two = EvaluateTandem(2);
  const ScenarioReport four = EvaluateTandem(4);
  // More threads than the grid's 6 cells: one worker per cell.
  const ScenarioReport eight = EvaluateTandem(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  // The serialized bytes are the determinism contract CI cares about — compare them too.
  std::ostringstream s1, s4;
  WriteScenarioReport(s1, one);
  WriteScenarioReport(s4, four);
  EXPECT_EQ(s1.str(), s4.str());
}

TEST(ScenarioEngine, CommonRandomNumbersBitIdenticalAcrossThreadCounts) {
  const ScenarioReport one = EvaluateTandem(1, /*crn=*/true);
  const ScenarioReport four = EvaluateTandem(4, /*crn=*/true);
  EXPECT_EQ(one, four);
}

TEST(ScenarioEngine, AgreesWithAnalyticOnMm1Cells) {
  // Single M/M/1 queue, moderate load: the DES mean response must land on the
  // steady-state formula within sampling error.
  const QueueingNetwork base = MakeSingleQueueNetwork(2.0, 5.0);
  ScenarioEngineOptions options;
  options.max_draws = 1;
  options.tasks_per_draw = 20000;
  options.warmup_fraction = 0.25;
  ScenarioEngine engine(options);
  const ScenarioReport report =
      engine.Evaluate(base, ParameterPosterior::FromPoint({2.0, 5.0}),
                      ScenarioGrid({LoadAxis({1.0, 1.5})}), 7);
  for (const CellResult& cell : report.cells) {
    ASSERT_TRUE(cell.analytic_valid);
    ASSERT_TRUE(cell.analytic_stable);
    const double lambda = 2.0 * cell.axis_values[0];
    const Mm1Metrics mm1 = AnalyzeMm1(lambda, 5.0);
    EXPECT_NEAR(cell.analytic_mean_response, mm1.mean_response, 1e-12);
    EXPECT_NEAR(cell.mean_response.mean, mm1.mean_response, 0.12 * mm1.mean_response);
    EXPECT_NEAR(cell.utilization[1].mean, mm1.utilization, 0.1);
  }
}

TEST(ScenarioEngine, FlagsSaturatedCellsAnalytically) {
  const QueueingNetwork base = MakeSingleQueueNetwork(2.0, 5.0);
  ScenarioEngineOptions options;
  options.max_draws = 1;
  options.tasks_per_draw = 200;
  ScenarioEngine engine(options);
  const ScenarioReport report =
      engine.Evaluate(base, ParameterPosterior::FromPoint({2.0, 5.0}),
                      ScenarioGrid({LoadAxis({1.0, 3.0})}), 7);
  EXPECT_TRUE(report.cells[0].analytic_stable);
  EXPECT_FALSE(report.cells[1].analytic_stable);  // rho = 6/5
  EXPECT_TRUE(std::isnan(report.cells[1].analytic_mean_response));
}

TEST(AnalyzeCellAnalytic, Mg1BranchMatchesDesOnGammaService) {
  // Gamma(k=4) service (SCV 1/4): Pollaczek-Khinchine against a long DES run of the
  // same network — the M/G/1 leg of the cross-check.
  QueueingNetwork net = MakeSingleQueueNetwork(2.0, 5.0);
  net.SetService(1, std::make_unique<GammaDist>(4.0, 20.0));  // mean 0.2 (shape 4, rate 20)
  const AnalyticPrediction analytic = AnalyzeCellAnalytic(net);
  ASSERT_TRUE(analytic.stable);
  const Mg1Metrics mg1 = AnalyzeMg1(2.0, net.Service(1));
  EXPECT_NEAR(analytic.mean_response, mg1.mean_response, 1e-12);
  EXPECT_NEAR(analytic.utilization[1], 0.4, 1e-9);

  Rng rng(11);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 20000), rng);
  RunningStat response;
  for (int k = log.NumTasks() / 4; k < log.NumTasks(); ++k) {
    response.Add(log.TaskExitTime(k) - log.TaskEntryTime(k));
  }
  EXPECT_NEAR(response.Mean(), analytic.mean_response, 0.12 * analytic.mean_response);
}

TEST(AnalyzeCellAnalytic, Mg1OnExponentialEqualsMm1) {
  const QueueingNetwork net = MakeSingleQueueNetwork(2.0, 5.0);
  const Mg1Metrics mg1 = AnalyzeMg1(2.0, net.Service(1));
  const Mm1Metrics mm1 = AnalyzeMm1(2.0, 5.0);
  EXPECT_NEAR(mg1.mean_response, mm1.mean_response, 1e-12);
}

TEST(ScenarioEngine, UtilizationAndLatencyMonotoneAlongLoadAxis) {
  // Pure load axis under common random numbers: compressing the same arrival uniforms
  // against the same service draws can only lengthen queues (Lindley monotonicity), so
  // the sweep is monotone exactly, not just statistically.
  const QueueingNetwork base = MakeTandemNetwork(1.5, {6.0, 4.0});
  ScenarioEngineOptions options;
  options.max_draws = 2;
  options.tasks_per_draw = 1000;
  options.common_random_numbers = true;
  ScenarioEngine engine(options);
  StemResult stem;
  stem.rate_trace = {3, {1.5, 6.0, 4.0, 1.45, 6.2, 4.1}};
  const ScenarioReport report =
      engine.Evaluate(base, ParameterPosterior::FromStem(stem, 0),
                      ScenarioGrid({LoadAxis({0.5, 1.0, 1.5, 2.0})}), 13);
  for (std::size_t i = 1; i < report.cells.size(); ++i) {
    EXPECT_GE(report.cells[i].mean_response.mean, report.cells[i - 1].mean_response.mean);
    EXPECT_GE(report.cells[i].tail_response.mean, report.cells[i - 1].tail_response.mean);
    for (int q = 1; q < report.num_queues; ++q) {
      EXPECT_GE(report.cells[i].utilization[static_cast<std::size_t>(q)].mean,
                report.cells[i - 1].utilization[static_cast<std::size_t>(q)].mean);
    }
  }
}

TEST(ScenarioEngine, ServerUpgradeReducesLatencyAtTheBottleneck) {
  const QueueingNetwork base = MakeTandemNetwork(3.0, {4.0, 9.0});  // queue 1 is hot
  ScenarioAxis servers;
  servers.kind = AxisKind::kServerCount;
  servers.name = "servers";
  servers.queue = 1;
  servers.values = {1.0, 2.0};
  ScenarioEngineOptions options;
  options.max_draws = 1;
  options.tasks_per_draw = 4000;
  options.common_random_numbers = true;
  ScenarioEngine engine(options);
  const ScenarioReport report =
      engine.Evaluate(base, ParameterPosterior::FromPoint({3.0, 4.0, 9.0}),
                      ScenarioGrid({servers}), 19);
  EXPECT_EQ(report.cells[0].bottleneck_queue, 1);
  EXPECT_LT(report.cells[1].mean_response.mean, report.cells[0].mean_response.mean);
  EXPECT_LT(report.cells[1].utilization[1].mean, report.cells[0].utilization[1].mean);
}

TEST(ScenarioReportCsv, RoundTripsBitExactly) {
  const ScenarioReport report = EvaluateTandem(2);
  std::stringstream buffer;
  WriteScenarioReport(buffer, report);
  const ScenarioReport reread = ReadScenarioReport(buffer);
  EXPECT_EQ(report, reread);
  // And the re-serialization is byte-identical.
  std::ostringstream again;
  WriteScenarioReport(again, reread);
  std::ostringstream first;
  WriteScenarioReport(first, report);
  EXPECT_EQ(first.str(), again.str());
}

TEST(ScenarioReportCsv, RoundTripsNanAnalyticAndFiles) {
  const QueueingNetwork base = MakeSingleQueueNetwork(2.0, 5.0);
  ScenarioEngineOptions options;
  options.max_draws = 1;
  options.tasks_per_draw = 100;
  ScenarioEngine engine(options);
  const ScenarioReport report =
      engine.Evaluate(base, ParameterPosterior::FromPoint({2.0, 5.0}),
                      ScenarioGrid({LoadAxis({3.0})}), 3);
  ASSERT_TRUE(std::isnan(report.cells[0].analytic_mean_response));
  // Report equality treats two NaN analytic fields as equal (saturated cells are NaN by
  // design), so whole-report comparisons work on saturated grids too.
  EXPECT_EQ(report, report);
  const std::string path = ::testing::TempDir() + "/qnet_scenario_report.csv";
  WriteScenarioReportFile(path, report);
  const ScenarioReport reread = ReadScenarioReportFile(path);
  EXPECT_TRUE(std::isnan(reread.cells[0].analytic_mean_response));
  EXPECT_EQ(report, reread);
  std::remove(path.c_str());
}

TEST(ScenarioReportCsv, RejectsCorruptInput) {
  std::istringstream missing("# cells=1\n");
  EXPECT_THROW(ReadScenarioReport(missing), Error);
  const ScenarioReport report = EvaluateTandem(1);
  std::ostringstream buffer;
  WriteScenarioReport(buffer, report);
  std::string text = buffer.str();
  text.pop_back();                 // drop trailing newline…
  text += ",999\n";                // …and append a stray field to the last row
  std::istringstream corrupt(text);
  EXPECT_THROW(ReadScenarioReport(corrupt), Error);
  // A negative seed must be rejected, not silently wrapped by stoull.
  std::string negative_seed = buffer.str();
  const std::size_t at = negative_seed.find("# seed=");
  ASSERT_NE(at, std::string::npos);
  negative_seed.insert(at + 7, "-");
  std::istringstream negative(negative_seed);
  EXPECT_THROW(ReadScenarioReport(negative), Error);
}

TEST(WindowForecaster, HooksIntoStreamingEstimatorDeterministically) {
  const QueueingNetwork net = MakeTandemNetwork(4.0, {10.0, 20.0});
  Rng rng(23);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(4.0, 600), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.4;
  const Observation obs = scheme.Apply(truth, rng);

  ScenarioEngineOptions forecast_options;
  forecast_options.max_draws = 1;
  forecast_options.tasks_per_draw = 100;
  // CRN makes the 1x-vs-2x comparison exactly monotone even at 100 tasks per draw.
  forecast_options.common_random_numbers = true;
  const ScenarioGrid grid({LoadAxis({1.0, 2.0})});

  const auto run = [&] {
    WindowForecaster forecaster(net, grid, forecast_options, /*seed=*/5);
    StreamingEstimatorOptions options;
    options.window.window_duration = 25.0;
    options.stem.iterations = 20;
    options.stem.burn_in = 5;
    options.stem.wait_sweeps = 0;
    options.on_window = forecaster.Hook();
    std::vector<double> init(static_cast<std::size_t>(net.NumQueues()), 1.0);
    init[0] = 4.0;
    StreamingEstimator estimator(init, /*seed=*/9, options);
    LogReplayStream stream(truth, obs);
    const auto estimates = estimator.Run(stream);
    return std::make_pair(estimates, forecaster.Reports());
  };

  const auto [estimates, reports] = run();
  ASSERT_FALSE(estimates.empty());
  ASSERT_EQ(reports.size(), estimates.size());  // merged-tail re-fit replaced, not appended
  for (std::size_t w = 0; w < reports.size(); ++w) {
    EXPECT_EQ(reports[w].cells.size(), 2u);
    // Forecast at the window's own rates is ordered: doubling load hurts (exact under
    // common random numbers).
    EXPECT_GE(reports[w].cells[1].mean_response.mean,
              reports[w].cells[0].mean_response.mean);
    // The forecast lambda is the window's EMPIRICAL arrival rate (~4 here), not the
    // absolute-time-anchored StEM iterate (which decays toward 0 over the stream):
    // baseline utilization must be substantive, and under CRN doubling load compresses
    // the same busy time into a much shorter horizon (short of exactly 2x only by the
    // backlog extending past the last arrival).
    const double util_1x = reports[w].cells[0].utilization[1].mean;
    const double util_2x = reports[w].cells[1].utilization[1].mean;
    EXPECT_GT(util_1x, 0.15);  // lambda ~4 against mu ~10
    EXPECT_GT(util_2x, 1.4 * util_1x);
  }
  // The forecast sequence inherits the streaming determinism contract: a second run
  // must not change a single bit of any report.
  const auto [estimates_again, reports_again] = run();
  ASSERT_EQ(estimates_again.size(), estimates.size());
  for (std::size_t w = 0; w < reports.size(); ++w) {
    EXPECT_EQ(reports[w], reports_again[w]);
  }
}

TEST(WindowForecaster, UsesWindowLocalLambdaWhenTheEstimateCarriesIt) {
  const QueueingNetwork net = MakeTandemNetwork(4.0, {10.0, 20.0});
  ScenarioEngineOptions forecast_options;
  forecast_options.max_draws = 1;
  forecast_options.tasks_per_draw = 100;
  const ScenarioGrid grid({LoadAxis({1.0, 2.0})});

  WindowEstimate estimate;
  estimate.t0 = 100.0;
  estimate.t1 = 125.0;
  estimate.tasks = 100;  // empirical rate 4.0
  estimate.rates = {4.0, 10.0, 20.0};

  // Legacy estimate (flag off): the forecaster substitutes the empirical rate, so an
  // estimate whose fitted lambda EQUALS the empirical rate forecasts identically with
  // the flag on — the two code paths meet bit-exactly.
  WindowForecaster legacy(net, grid, forecast_options, /*seed=*/7);
  const ScenarioReport by_empirical = legacy.Forecast(estimate);
  estimate.window_local_arrival_rate = true;
  WindowForecaster anchored(net, grid, forecast_options, /*seed=*/7);
  const ScenarioReport by_fitted = anchored.Forecast(estimate);
  EXPECT_EQ(by_empirical, by_fitted);

  // A window-local fitted lambda different from the empirical count (e.g. reflecting
  // latent arrivals) now changes the forecast — the workaround no longer overrides it.
  estimate.rates[0] = 6.0;
  WindowForecaster hotter(net, grid, forecast_options, /*seed=*/7);
  const ScenarioReport by_hotter = hotter.Forecast(estimate);
  EXPECT_GT(by_hotter.cells[0].utilization[1].mean,
            1.2 * by_fitted.cells[0].utilization[1].mean);
}

TEST(WindowForecaster, ConsumesDegradedEstimatesAndCountsThem) {
  // Under overload degradation the estimator hands the forecaster mean-field-only
  // estimates; the grid only needs point rates, so forecasting proceeds — but the
  // operator-facing counter must record how many forecast points were sampler-free.
  const QueueingNetwork net = MakeTandemNetwork(4.0, {10.0, 20.0});
  ScenarioEngineOptions forecast_options;
  forecast_options.max_draws = 1;
  forecast_options.tasks_per_draw = 100;
  const ScenarioGrid grid({LoadAxis({1.0, 2.0})});

  WindowEstimate estimate;
  estimate.t0 = 0.0;
  estimate.t1 = 25.0;
  estimate.tasks = 100;
  estimate.rates = {4.0, 10.0, 20.0};
  estimate.window_local_arrival_rate = true;
  estimate.degraded = true;
  estimate.fit_iterations = 0;

  WindowForecaster forecaster(net, grid, forecast_options, /*seed=*/11);
  const ScenarioReport& report = forecaster.Forecast(estimate);
  EXPECT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(forecaster.DegradedForecasts(), 1u);

  // A degraded estimate forecasts identically to an undegraded one with the same rates:
  // the flag is bookkeeping, not a modeling input.
  WindowForecaster plain(net, grid, forecast_options, /*seed=*/11);
  estimate.degraded = false;
  EXPECT_EQ(plain.Forecast(estimate), forecaster.Reports().front());
  EXPECT_EQ(plain.DegradedForecasts(), 0u);
}

// ---------------------------------------------------------------------------------------
// Clone-free fast-path pins. The overlay/arena engine must reproduce the historical
// clone-per-cell evaluation bit-for-bit: against golden reports generated by the pre-PR
// engine, against an in-test reference evaluator built from the public clone APIs, warm
// (reused workspaces) against cold, and across thread counts.

ScenarioReport EvaluateThreeTierGoldenFixture(std::size_t threads) {
  ThreeTierConfig config;
  config.tier_sizes = {2, 1};
  const QueueingNetwork base = MakeThreeTierNetwork(config);
  StemResult stem;
  stem.rate_trace = {4, {10.0, 5.0, 5.0, 12.0, 9.5, 5.2, 4.9, 11.5}};
  ScenarioAxis route;
  route.kind = AxisKind::kRoutingScale;
  route.name = "shift";
  route.queue = 1;
  route.state = 0;
  route.values = {1.0, 3.0};
  ScenarioAxis servers;
  servers.kind = AxisKind::kServerCount;
  servers.name = "servers";
  servers.queue = 3;
  servers.values = {1.0, 2.0};
  ScenarioAxis load;
  load.kind = AxisKind::kArrivalScale;
  load.name = "load";
  load.values = {0.8, 1.2};
  ScenarioEngineOptions options;
  options.max_draws = 2;
  options.tasks_per_draw = 128;
  options.common_random_numbers = true;
  options.threads = threads;
  ScenarioEngine engine(options);
  return engine.Evaluate(base, ParameterPosterior::FromStem(stem, 0),
                         ScenarioGrid({route, servers, load}), /*seed=*/7);
}

TEST(ScenarioEngineGolden, TandemReportMatchesPreOverlayGolden) {
  const ScenarioReport golden = ReadScenarioReportFile(
      std::string(QNET_TEST_DATA_DIR) + "/scenario_golden_tandem.csv");
  EXPECT_EQ(EvaluateTandem(1), golden);
}

TEST(ScenarioEngineGolden, ThreeTierReportMatchesPreOverlayGoldenAcrossThreads) {
  // Exercises every axis kind (routing edit, server count, load) plus CRN against the
  // pre-overlay engine's output, for each thread count the TSan job runs under.
  const ScenarioReport golden = ReadScenarioReportFile(
      std::string(QNET_TEST_DATA_DIR) + "/scenario_golden_threetier.csv");
  EXPECT_EQ(EvaluateThreeTierGoldenFixture(1), golden);
  EXPECT_EQ(EvaluateThreeTierGoldenFixture(2), golden);
  EXPECT_EQ(EvaluateThreeTierGoldenFixture(4), golden);
}

// Reference evaluation of one cell through the public clone APIs — a line-for-line
// transcription of the historical EvaluateCell, kept as an executable specification of
// what the overlay fast path must reproduce.
CellResult ReferenceEvaluateCell(const QueueingNetwork& base,
                                 const ParameterPosterior& posterior,
                                 const ScenarioGrid& grid, std::size_t cell_index,
                                 std::uint64_t seed, std::size_t draws,
                                 const ScenarioEngineOptions& options) {
  const ScenarioCell cell = grid.Cell(cell_index);
  const auto num_queues = static_cast<std::size_t>(base.NumQueues());

  CellResult result;
  result.cell = cell_index;
  result.axis_values = cell.values;

  std::vector<double> means(draws), tails(draws);
  std::vector<std::vector<double>> utils(draws), qlens(draws);
  for (std::size_t d = 0; d < draws; ++d) {
    const std::size_t source = d * posterior.NumDraws() / draws;
    const CellRealization real = grid.Realize(base, cell, posterior.Draw(source));
    const std::uint64_t salt_base =
        options.common_random_numbers ? seed : MixSeed(seed, cell_index);
    Rng rng(MixSeed(salt_base, d));
    const EventLog log = SimulateWorkload(
        real.net, PoissonArrivals(real.rates[0], options.tasks_per_draw), rng);

    const int num_tasks = log.NumTasks();
    const int warm = static_cast<int>(static_cast<double>(num_tasks) * options.warmup_fraction);
    std::vector<double> responses;
    double horizon = 0.0;
    for (int k = 0; k < num_tasks; ++k) {
      const double exit = log.TaskExitTime(k);
      horizon = std::max(horizon, exit);
      if (k >= warm) {
        responses.push_back(exit - log.TaskEntryTime(k));
      }
    }
    means[d] = Mean(responses);
    tails[d] = Quantile(responses, options.tail_quantile);
    const std::vector<double> busy = log.PerQueueServiceSum();
    utils[d].assign(num_queues, 0.0);
    qlens[d].assign(num_queues, 0.0);
    for (std::size_t q = 1; q < num_queues; ++q) {
      utils[d][q] = busy[q] / horizon;
      double wait_sum = 0.0;
      for (const EventId e : log.QueueOrder(static_cast<int>(q))) {
        wait_sum += log.WaitTime(e);
      }
      qlens[d][q] = wait_sum / horizon;
    }
  }

  std::vector<double> column(draws);
  const auto reduce = [&](const auto& get) {
    for (std::size_t d = 0; d < draws; ++d) {
      column[d] = get(d);
    }
    MetricBand band;
    band.mean = Mean(column);
    band.lo = Quantile(column, options.band_lo);
    band.hi = Quantile(column, options.band_hi);
    return band;
  };
  result.mean_response = reduce([&](std::size_t d) { return means[d]; });
  result.tail_response = reduce([&](std::size_t d) { return tails[d]; });
  result.utilization.resize(num_queues);
  result.queue_length.resize(num_queues);
  for (std::size_t q = 1; q < num_queues; ++q) {
    result.utilization[q] = reduce([&](std::size_t d) { return utils[d][q]; });
    result.queue_length[q] = reduce([&](std::size_t d) { return qlens[d][q]; });
  }

  result.bottleneck_ranking.resize(num_queues - 1);
  std::iota(result.bottleneck_ranking.begin(), result.bottleneck_ranking.end(), 1);
  std::sort(result.bottleneck_ranking.begin(), result.bottleneck_ranking.end(),
            [&](int a, int b) {
              const double ua = result.utilization[static_cast<std::size_t>(a)].mean;
              const double ub = result.utilization[static_cast<std::size_t>(b)].mean;
              return ua != ub ? ua > ub : a < b;
            });
  result.bottleneck_queue = result.bottleneck_ranking.front();

  if (options.analytic) {
    const CellRealization mean_cell = grid.Realize(base, cell, posterior.MeanRates());
    const AnalyticPrediction analytic =
        AnalyzeCellAnalytic(mean_cell.net, mean_cell.servers, mean_cell.rates);
    result.analytic_valid = true;
    result.analytic_stable = analytic.stable;
    result.analytic_mean_response = analytic.mean_response;
  }
  return result;
}

TEST(ScenarioEngine, OverlayFastPathMatchesCloneReferenceBitwise) {
  ThreeTierConfig config;
  config.tier_sizes = {2, 1};
  const QueueingNetwork base = MakeThreeTierNetwork(config);
  StemResult stem;
  stem.rate_trace = {4, {10.0, 5.0, 5.0, 12.0, 9.5, 5.2, 4.9, 11.5, 10.2, 4.8, 5.1, 12.4}};
  const ParameterPosterior posterior = ParameterPosterior::FromStem(stem, 0);
  // Two routing axes on the same state: the second must compound on the first's
  // renormalized row, exactly like sequential SetWeightedEmission calls on a clone.
  ScenarioAxis shift1;
  shift1.kind = AxisKind::kRoutingScale;
  shift1.name = "shift1";
  shift1.queue = 1;
  shift1.state = 0;
  shift1.values = {2.0};
  ScenarioAxis shift2;
  shift2.kind = AxisKind::kRoutingScale;
  shift2.name = "shift2";
  shift2.queue = 2;
  shift2.state = 0;
  shift2.values = {0.5, 4.0};
  ScenarioAxis servers;
  servers.kind = AxisKind::kServerCount;
  servers.name = "servers";
  servers.queue = 3;
  servers.values = {1.0, 3.0};
  const ScenarioGrid grid({shift1, shift2, servers});

  ScenarioEngineOptions options;
  options.max_draws = 2;
  options.tasks_per_draw = 96;
  ScenarioEngine engine(options);
  const ScenarioReport report =
      engine.Evaluate(base, posterior, grid, /*seed=*/99);
  ASSERT_EQ(report.cells.size(), grid.NumCells());
  for (std::size_t i = 0; i < grid.NumCells(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(report.cells[i], ReferenceEvaluateCell(base, posterior, grid, i,
                                                     /*seed=*/99, report.draws, options));
  }
}

TEST(ScenarioEngine, WarmWorkspacesReproduceColdEvaluation) {
  // Second Evaluate on the same engine runs entirely on warm per-worker arenas; the
  // report must not care.
  const QueueingNetwork base = MakeTandemNetwork(1.5, {6.0, 4.0});
  StemResult stem;
  stem.rate_trace = {3, {1.5, 6.0, 4.0, 1.4, 6.3, 4.2, 1.6, 5.8, 3.9}};
  const ParameterPosterior posterior = ParameterPosterior::FromStem(stem, 0);
  const ScenarioGrid grid({LoadAxis({1.0, 1.5, 2.0}), ServiceAxis(2, {1.0, 2.0})});
  ScenarioEngineOptions options;
  options.max_draws = 3;
  options.tasks_per_draw = 200;
  options.threads = 2;
  ScenarioEngine engine(options);
  const ScenarioReport cold = engine.Evaluate(base, posterior, grid, 42);
  const ScenarioReport warm = engine.Evaluate(base, posterior, grid, 42);
  EXPECT_EQ(cold, warm);
  // Different seed on warm workspaces still works (no stale state leaks through).
  const ScenarioReport other = engine.Evaluate(base, posterior, grid, 43);
  EXPECT_NE(other, warm);
}

TEST(ScenarioEngine, GuardsOptionAndShapeMisuse) {
  ScenarioEngineOptions bad;
  bad.max_draws = 0;
  EXPECT_THROW(ScenarioEngine{bad}, Error);
  bad = ScenarioEngineOptions{};
  bad.warmup_fraction = 1.0;
  EXPECT_THROW(ScenarioEngine{bad}, Error);

  const QueueingNetwork base = MakeSingleQueueNetwork(2.0, 5.0);
  ScenarioEngine engine;
  // Draw has 3 rates, network has 2 queues.
  EXPECT_THROW(engine.Evaluate(base, ParameterPosterior::FromPoint({2.0, 5.0, 5.0}),
                               ScenarioGrid({LoadAxis({1.0})}), 1),
               Error);
  // Axis targets a queue outside the network.
  EXPECT_THROW(engine.Evaluate(base, ParameterPosterior::FromPoint({2.0, 5.0}),
                               ScenarioGrid({ServiceAxis(5, {1.0})}), 1),
               Error);
}

}  // namespace
}  // namespace qnet
