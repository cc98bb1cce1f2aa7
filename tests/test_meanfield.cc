// Mean-field fast path: accuracy of the sampler-free window fit against StEM and the
// generating rates across utilizations, determinism (a pure function of the observed
// times + structure), the zero-allocation hot-path contract, and the cross-lane
// bias-correction inversions.

#include "qnet/infer/meanfield.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/counting_allocator.h"
#include "support/overtaking_records.h"
#include "qnet/infer/stem.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/task_record.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

MeanFieldFit FitLog(const EventLog& log, const Observation& obs, double origin = 0.0) {
  MeanFieldEstimator estimator;
  MeanFieldFit fit;
  estimator.Fit(log, obs, origin, fit);
  return fit;
}

StemResult StemFit(const EventLog& log, const Observation& obs, std::size_t num_queues,
                   std::uint64_t seed) {
  StemOptions options;
  options.iterations = 60;
  options.burn_in = 20;
  options.wait_sweeps = 0;
  Rng rng(seed);
  return StemEstimator(options).Run(log, obs, std::vector<double>(num_queues, 1.0), rng);
}

// --- Accuracy across utilizations --------------------------------------------------------

TEST(MeanField, TracksTruthAndStemOnMm1AcrossUtilizations) {
  // The closure R = 1/(mu - lambda) is exact for M/M/1, so the inversion should track
  // the generating rates at every utilization — the degradation/warm-start regimes the
  // fast path serves all live in this sweep.
  const double lambda = 2.0;
  int rep = 0;
  for (const double rho : {0.1, 0.5, 0.7, 0.9}) {
    const double mu = lambda / rho;
    const QueueingNetwork net = MakeSingleQueueNetwork(lambda, mu);
    Rng rng(100 + rep++);
    const EventLog truth = SimulateWorkload(net, PoissonArrivals(lambda, 800), rng);
    const Observation obs = Observation::FullyObserved(truth);

    const MeanFieldFit fit = FitLog(truth, obs);
    ASSERT_EQ(fit.rates.size(), 2u);
    EXPECT_TRUE(fit.AllQueuesFitted()) << "rho=" << rho;
    EXPECT_NEAR(fit.rates[0], lambda, 0.25 * lambda) << "rho=" << rho;
    EXPECT_NEAR(1.0 / fit.rates[1], 1.0 / mu, 0.10 / mu) << "rho=" << rho;
    // The waiting-time estimate tracks the realized mean wait.
    const double realized_wait = truth.PerQueueMeanWait()[1];
    EXPECT_NEAR(fit.mean_wait[1], realized_wait, 0.25 * realized_wait + 0.02)
        << "rho=" << rho;

    // And it agrees with StEM on the same trace (full observation: StEM reduces to the
    // complete-data MLE).
    const StemResult stem = StemFit(truth, obs, 2, 9);
    EXPECT_NEAR(1.0 / fit.rates[1], 1.0 / stem.rates[1], 0.10 / stem.rates[1])
        << "rho=" << rho;
  }
}

TEST(MeanField, TracksTruthAndStemOnTandemAcrossUtilizations) {
  // 3-queue tandem; in equilibrium each stage's arrivals are Poisson (Burke), so the
  // per-queue M/M/1 decoupling stays honest and every stage should invert cleanly.
  const double lambda = 2.0;
  int rep = 0;
  for (const double rho : {0.1, 0.5, 0.7, 0.9}) {
    const std::vector<double> service_rates = {lambda / rho, 1.15 * lambda / rho,
                                               1.3 * lambda / rho};
    const QueueingNetwork net = MakeTandemNetwork(lambda, service_rates);
    Rng rng(200 + rep++);
    const EventLog truth = SimulateWorkload(net, PoissonArrivals(lambda, 800), rng);
    const Observation obs = Observation::FullyObserved(truth);

    const MeanFieldFit fit = FitLog(truth, obs);
    ASSERT_EQ(fit.rates.size(), 4u);
    const StemResult stem = StemFit(truth, obs, 4, 11);
    for (std::size_t q = 1; q < 4; ++q) {
      const double mu = service_rates[q - 1];
      EXPECT_NEAR(1.0 / fit.rates[q], 1.0 / mu, 0.12 / mu)
          << "rho=" << rho << " queue " << q;
      EXPECT_NEAR(1.0 / fit.rates[q], 1.0 / stem.rates[q], 0.12 / stem.rates[q])
          << "rho=" << rho << " queue " << q;
    }
  }
}

TEST(MeanField, WorksFromPartiallyObservedResponses) {
  // Task-level sampling observes complete tasks, so sampled tasks contribute their full
  // per-queue responses; the fit just averages fewer of them.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {5.0, 4.0});
  Rng rng(7);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 1000), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.25;
  const Observation obs = scheme.Apply(truth, rng);

  const MeanFieldFit fit = FitLog(truth, obs);
  EXPECT_GT(fit.observed_responses, 100u);
  EXPECT_NEAR(1.0 / fit.rates[1], 0.2, 0.05);
  EXPECT_NEAR(1.0 / fit.rates[2], 0.25, 0.06);
  EXPECT_NEAR(fit.rates[0], 2.0, 0.4);
}

// --- Determinism and observability contract ----------------------------------------------

TEST(MeanField, ReadsOnlyObservedTimesAndIsDeterministic) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {5.0, 4.0});
  Rng rng(13);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 300), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.4;
  const Observation obs = scheme.Apply(truth, rng);

  const MeanFieldFit first = FitLog(truth, obs);
  const MeanFieldFit again = FitLog(truth, obs);
  EXPECT_EQ(first.rates, again.rates);
  EXPECT_EQ(first.mean_wait, again.mean_wait);

  // Corrupt every UNOBSERVED time: the fit must not move a bit.
  EventLog perturbed = truth;
  for (EventId e = 0; static_cast<std::size_t>(e) < perturbed.NumEvents(); ++e) {
    if (!obs.ArrivalObserved(e) && !perturbed.At(e).initial) {
      perturbed.SetArrival(e, perturbed.Arrival(e) + 123.456);
    }
    if (!obs.DepartureObserved(e)) {
      perturbed.SetDeparture(e, perturbed.Departure(e) + 654.321);
    }
  }
  const MeanFieldFit corrupted = FitLog(perturbed, obs);
  EXPECT_EQ(first.rates, corrupted.rates);
  EXPECT_EQ(first.mean_wait, corrupted.mean_wait);
}

TEST(MeanField, ArrivalOriginAnchorsLambdaAndNothingElse) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {5.0, 4.0});
  Rng rng(17);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 300), rng);
  const Observation obs = Observation::FullyObserved(truth);

  const MeanFieldFit absolute = FitLog(truth, obs, 0.0);
  const double last_entry = truth.TaskEntryTime(truth.NumTasks() - 1);
  const MeanFieldFit anchored = FitLog(truth, obs, 0.25 * last_entry);
  EXPECT_NEAR(anchored.rates[0],
              static_cast<double>(truth.NumTasks()) / (0.75 * last_entry), 1e-9);
  for (std::size_t q = 1; q < absolute.rates.size(); ++q) {
    EXPECT_EQ(absolute.rates[q], anchored.rates[q]) << "queue " << q;
    EXPECT_EQ(absolute.mean_wait[q], anchored.mean_wait[q]) << "queue " << q;
  }
  // Degenerate origin at/after the last entry: absolute fallback, like the M-step.
  const MeanFieldFit degenerate = FitLog(truth, obs, 2.0 * last_entry);
  EXPECT_EQ(degenerate.rates[0], absolute.rates[0]);
}

TEST(MeanField, QueueWithNoEventsKeepsFallbackRate) {
  // Single-visit records to queue 1 of a 3-queue network: queue 2 has no events, so the
  // fit flags it unfitted and leaves the fallback rate (the caller substitutes its warm
  // chain's rates).
  WindowLogBuilder builder(3);
  for (int i = 0; i < 6; ++i) {
    TaskRecord record;
    record.entry_time = 1.0 + i;
    TaskVisit visit;
    visit.state = 0;
    visit.queue = 1;
    visit.arrival = record.entry_time;
    visit.departure = record.entry_time + 0.25;
    record.visits.push_back(visit);
    builder.Add(record);
  }
  auto [log, obs] = builder.Finish();
  MeanFieldOptions options;
  options.fallback_rate = 3.25;
  MeanFieldEstimator estimator(options);
  MeanFieldFit fit;
  estimator.Fit(log, obs, 0.0, fit);
  EXPECT_EQ(fit.fitted[1], 1);
  EXPECT_EQ(fit.fitted[2], 0);
  EXPECT_FALSE(fit.AllQueuesFitted());
  EXPECT_EQ(fit.rates[2], 3.25);
  // mu = lambda_q + 1/Rbar with lambda_q = 6 events / busy span [1.0, 6.25].
  EXPECT_NEAR(fit.rates[1], 6.0 / 5.25 + 1.0 / 0.25, 1e-9);
}

// --- Degenerate windows ------------------------------------------------------------------

// Three tasks through a 2-queue tandem with every time unobserved, except the entry of
// task `observed_task` (if any), which also observes its first arrival, the same instant.
std::vector<TaskRecord> ThreeTaskRecords(int observed_task = -1) {
  std::vector<TaskRecord> records(3);
  for (int k = 0; k < 3; ++k) {
    TaskRecord& record = records[static_cast<std::size_t>(k)];
    record.entry_time = 1.0 + k;
    double t = record.entry_time;
    for (const int queue : {1, 2}) {
      TaskVisit visit;
      visit.state = queue;
      visit.queue = queue;
      visit.arrival = t;
      visit.departure = t + 0.25;
      visit.arrival_observed = false;
      visit.departure_observed = false;
      record.visits.push_back(visit);
      t = visit.departure;
    }
    record.visits.front().arrival_observed = k == observed_task;
  }
  return records;
}

// Both routes to the closure: the built log and the record fold.
std::vector<MeanFieldFit> FitBothWays(const std::vector<TaskRecord>& records,
                                      int num_queues, const MeanFieldOptions& options) {
  WindowLogBuilder builder(num_queues);
  MeanFieldRecordFold fold(num_queues);
  for (const TaskRecord& record : records) {
    builder.Add(record);
    fold.Add(record);
  }
  builder.Build();
  MeanFieldEstimator estimator(options);
  std::vector<MeanFieldFit> fits(2);
  estimator.Fit(builder.Log(), builder.Obs(), 0.0, fits[0]);
  estimator.Fit(fold.Stats(), 0.0, fits[1]);
  return fits;
}

TEST(MeanField, WindowWithNoObservedTimeFitsNothing) {
  // No observed entry pins no lambda, and no observed span turns no count into a rate:
  // every rate stays the (finite) fallback and is flagged unfitted, so the caller keeps
  // its chain's rates instead of adopting lambda = fallback and mu = n / min_span.
  MeanFieldOptions options;
  options.fallback_rate = 1.5;
  for (const MeanFieldFit& fit : FitBothWays(ThreeTaskRecords(), 3, options)) {
    EXPECT_EQ(fit.fitted, std::vector<char>(3, 0));
    EXPECT_EQ(fit.rates, std::vector<double>(3, 1.5));
    EXPECT_EQ(fit.mean_wait, std::vector<double>(3, 0.0));
    EXPECT_EQ(fit.observed_responses, 0u);
    EXPECT_FALSE(fit.AllQueuesFitted());
  }
}

TEST(MeanField, OneObservedInstantFitsLambdaButNoQueue) {
  // Task 1's entry (= its first arrival) is the only observed time: lambda is anchored on
  // it, but one distinct time is no busy span, so the queues stay unfitted.
  const MeanFieldOptions options;
  for (const MeanFieldFit& fit : FitBothWays(ThreeTaskRecords(1), 3, options)) {
    EXPECT_EQ(fit.fitted, (std::vector<char>{1, 0, 0}));
    EXPECT_EQ(fit.rates[0], 3.0 / 2.0);
    EXPECT_EQ(fit.rates[1], options.fallback_rate);
    EXPECT_EQ(fit.rates[2], options.fallback_rate);
  }
}

// --- Record fold == log fit --------------------------------------------------------------

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (const double v : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return bits;
}

// Builds `records` (in entry order) into a log, then checks `fold`'s counts against the
// log's and the two fits field for field, bit for bit, at an absolute and a window-local
// lambda anchor.
void ExpectFoldStatsMatchLogFit(MeanFieldRecordFold& fold,
                                const std::vector<TaskRecord>& records, int num_queues) {
  WindowLogBuilder builder(num_queues);
  for (const TaskRecord& record : records) {
    builder.Add(record);
  }
  builder.Build();
  EXPECT_EQ(fold.Stats().counts, builder.Log().PerQueueCount());
  EXPECT_EQ(fold.Stats().NumTasks(), records.size());
  MeanFieldEstimator estimator;
  for (const double origin : {0.0, records.front().entry_time}) {
    MeanFieldFit from_log;
    MeanFieldFit from_fold;
    estimator.Fit(builder.Log(), builder.Obs(), origin, from_log);
    estimator.Fit(fold.Stats(), origin, from_fold);
    EXPECT_EQ(Bits(from_fold.rates), Bits(from_log.rates)) << "origin " << origin;
    EXPECT_EQ(Bits(from_fold.mean_wait), Bits(from_log.mean_wait)) << "origin " << origin;
    EXPECT_EQ(from_fold.fitted, from_log.fitted) << "origin " << origin;
    EXPECT_EQ(from_fold.observed_responses, from_log.observed_responses);
  }
}

// Folds `records` in order and checks the fold against their log.
void ExpectFoldMatchesLogFit(const std::vector<TaskRecord>& records, int num_queues) {
  MeanFieldRecordFold fold(num_queues);
  for (const TaskRecord& record : records) {
    fold.Add(record);
  }
  ExpectFoldStatsMatchLogFit(fold, records, num_queues);
}

// Consecutive windows of growing size over `records`, then the whole sequence.
void ExpectFoldMatchesLogFitOnWindows(const std::vector<TaskRecord>& records,
                                      int num_queues) {
  std::size_t first = 0;
  for (const std::size_t size : {1u, 3u, 40u, 150u}) {
    ASSERT_LE(first + size, records.size());
    SCOPED_TRACE("window of " + std::to_string(size) + " from " + std::to_string(first));
    ExpectFoldMatchesLogFit({records.begin() + static_cast<std::ptrdiff_t>(first),
                             records.begin() + static_cast<std::ptrdiff_t>(first + size)},
                            num_queues);
    first += size;
  }
  ExpectFoldMatchesLogFit(records, num_queues);
}

TEST(MeanFieldRecordFold, MatchesLogFitOnTandemAndThreeTierAtEveryObservedFraction) {
  ThreeTierConfig tiers;
  tiers.tier_sizes = {1, 2, 4};
  tiers.arrival_rate = 10.0;
  tiers.service_rate = 16.0;
  for (const bool three_tier : {false, true}) {
    const QueueingNetwork net =
        three_tier ? MakeThreeTierNetwork(tiers) : MakeTandemNetwork(4.0, {8.0, 9.0});
    Rng rng(31);
    const EventLog truth = SimulateWorkload(
        net, PoissonArrivals(three_tier ? tiers.arrival_rate : 4.0, 400), rng);
    for (const double fraction : {0.0, 0.05, 0.2, 1.0}) {
      SCOPED_TRACE("queues " + std::to_string(truth.NumQueues()) + ", fraction " +
                   std::to_string(fraction));
      TaskSamplingScheme scheme;
      scheme.fraction = fraction;
      const Observation obs = scheme.Apply(truth, rng);
      std::vector<TaskRecord> records;
      for (int k = 0; k < truth.NumTasks(); ++k) {
        records.push_back(MakeTaskRecord(truth, obs, k));
      }
      ExpectFoldMatchesLogFitOnWindows(records, truth.NumQueues());
    }
  }
}

TEST(MeanFieldRecordFold, MatchesLogFitOnOvertakingTiedAndPartiallyObservedRecords) {
  ExpectFoldMatchesLogFitOnWindows(qnet_testing::OvertakingRecords(240), 4);
}

TEST(MeanFieldRecordFold, MatchesLogFitOnAMergedTailWindow) {
  // The end-of-stream re-close: the previous window's records, then the tail's, in the
  // order TakeDecisionRecords hands them to the lane.
  const std::vector<TaskRecord> records = qnet_testing::OvertakingRecords(60);
  std::vector<TaskRecord> last_window(records.begin(), records.begin() + 54);
  std::vector<TaskRecord> pending(records.begin() + 54, records.end());
  WindowSpanTracker::SpanDecision decision;
  decision.t0 = 0.0;
  decision.t1 = 40.0;
  decision.count = records.size();
  decision.merged_tail_tasks = pending.size();
  decision.take_all = true;
  const std::vector<TaskRecord> merged = TakeDecisionRecords(decision, pending, last_window);
  ASSERT_EQ(merged, records);
  ExpectFoldMatchesLogFit(merged, 4);
}

TEST(MeanFieldRecordFold, MergePreviousMatchesLogFitOfTheMergedRecordsInAnyArrivalOrder) {
  // A lane's merged trailing window: the previous window folded as its records arrived
  // (adjacent records of different entry times swapped) and retained, then the tail
  // folded in reverse entry order and merged into it. Records 52 and 53 tie on entry
  // time across the boundary, and the tail's record goes behind, as TakeDecisionRecords
  // orders the merged records.
  const std::vector<TaskRecord> records = qnet_testing::OvertakingRecords(60);
  std::vector<TaskRecord> previous(records.begin(), records.begin() + 53);
  for (std::size_t k = 1; k + 1 < previous.size(); k += 2) {
    std::swap(previous[k], previous[k + 1]);
  }
  std::vector<TaskRecord> tail(records.rbegin(), records.rbegin() + 7);
  MeanFieldRecordFold fold(4);
  for (const TaskRecord& record : previous) {
    fold.Add(record);
  }
  fold.Stats();
  fold.Restart(/*retain=*/true);
  for (const TaskRecord& record : tail) {
    fold.Add(record);
  }
  fold.MergePrevious();
  // The reference: the previous window's selection, then the merged re-close over it.
  WindowSpanTracker::SpanDecision close;
  close.t1 = 27.0;
  std::vector<TaskRecord> none;
  std::vector<TaskRecord> last_window = TakeDecisionRecords(close, previous, none);
  ASSERT_EQ(last_window.size(), 53u);
  WindowSpanTracker::SpanDecision merged_close;
  merged_close.t1 = 40.0;
  merged_close.merged_tail_tasks = tail.size();
  merged_close.take_all = true;
  const std::vector<TaskRecord> merged = TakeDecisionRecords(merged_close, tail, last_window);
  ASSERT_EQ(merged.size(), records.size());
  ExpectFoldStatsMatchLogFit(fold, merged, 4);
  // The merge consumed the retained window: merging again changes nothing.
  fold.MergePrevious();
  ExpectFoldStatsMatchLogFit(fold, merged, 4);
}

TEST(MeanFieldRecordFold, RestartStartsAFreshWindow) {
  const std::vector<TaskRecord> records = qnet_testing::OvertakingRecords(30);
  MeanFieldRecordFold reused(4);
  for (const TaskRecord& record : records) {
    reused.Add(record);
  }
  reused.Restart();
  MeanFieldRecordFold fresh(4);
  // Restart drops the window: the same records, in any order, fold to the same bits.
  for (std::size_t k = 2; k < 10; ++k) {
    reused.Add(records[k]);
    fresh.Add(records[k]);
  }
  EXPECT_EQ(reused.Stats().counts, fresh.Stats().counts);
  EXPECT_EQ(Bits(reused.Stats().resp_sum), Bits(fresh.Stats().resp_sum));
  EXPECT_EQ(reused.Stats().resp_count, fresh.Stats().resp_count);
  EXPECT_EQ(reused.Stats().t_min, fresh.Stats().t_min);
  EXPECT_EQ(reused.Stats().t_max, fresh.Stats().t_max);
  EXPECT_EQ(reused.Stats().last_entry, fresh.Stats().last_entry);
  EXPECT_EQ(reused.Stats().entry_observed, fresh.Stats().entry_observed);
}

// --- Zero allocations per fit ------------------------------------------------------------

TEST(MeanField, FitIsAllocationFreeOnceWarm) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {5.0, 4.0});
  Rng rng(23);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 500), rng);
  const Observation obs = Observation::FullyObserved(truth);

  MeanFieldEstimator estimator;
  MeanFieldFit fit;
  estimator.Fit(truth, obs, 0.0, fit);  // warm-up sizes the scratch + out vectors

  const std::size_t before = qnet_testing::AllocationCount();
  for (int i = 0; i < 100; ++i) {
    estimator.Fit(truth, obs, 0.0, fit);
  }
  EXPECT_EQ(qnet_testing::AllocationCount() - before, 0u);
}

// --- Cross-lane bias-correction inversions -----------------------------------------------

TEST(MeanFieldWaitFn, MatchesMm1FormulaAndClampsOverload) {
  // W = lambda / (mu (mu - lambda)).
  EXPECT_NEAR(MeanFieldWait(2.0, 4.0), 2.0 / (4.0 * 2.0), 1e-12);
  EXPECT_NEAR(MeanFieldWait(1.0, 4.0), 1.0 / (4.0 * 3.0), 1e-12);
  EXPECT_EQ(MeanFieldWait(0.0, 4.0), 0.0);
  EXPECT_EQ(MeanFieldWait(2.0, 0.0), 0.0);
  // Overload clamps at max_utilization instead of going negative/infinite.
  const double clamped = MeanFieldWait(10.0, 4.0, 0.95);
  EXPECT_GT(clamped, 0.0);
  EXPECT_NEAR(clamped, (0.95 * 4.0) / (4.0 * (4.0 - 0.95 * 4.0)), 1e-12);
}

TEST(CorrectCrossLaneShare, RecoversTrueRateFromExactMoments) {
  // M/M/1, lambda = 2, mu = 4: true S = 0.25, W = 0.25, R = 0.5. A lane decomposition
  // shifts wait mass into service (S_b = 0.45, W_b = 0.05) but leaves their sum — the
  // response — invariant; the correction re-inverts mu = lambda + 1/R exactly.
  const PooledCorrection corrected = CorrectCrossLaneShare(1.0 / 0.45, 0.05, 2.0);
  EXPECT_NEAR(corrected.rate, 4.0, 1e-9);
  EXPECT_NEAR(corrected.wait, 0.25, 1e-9);
  // Unbiased input is a fixed point.
  const PooledCorrection fixed_point = CorrectCrossLaneShare(4.0, 0.25, 2.0);
  EXPECT_NEAR(fixed_point.rate, 4.0, 1e-9);
  EXPECT_NEAR(fixed_point.wait, 0.25, 1e-9);
  // Degenerate inputs pass through unchanged.
  const PooledCorrection degenerate = CorrectCrossLaneShare(0.0, 0.1, 2.0);
  EXPECT_EQ(degenerate.rate, 0.0);
  EXPECT_EQ(degenerate.wait, 0.1);
}

TEST(ModelCrossLaneServiceRate, SolvesThinnedWaitFixedPoint) {
  // Synthetic 2-lane split of M/M/1 with lambda_q = 2, mu = 4: each lane sees half the
  // arrivals, so the biased pooled service is
  //   S_b = S + W(2, 4) - W(1, 4) = 0.25 + 0.25 - 1/12 = 0.41667.
  const double s_b = 0.25 + MeanFieldWait(2.0, 4.0) - MeanFieldWait(1.0, 4.0);
  const std::vector<double> shares = {0.5, 0.5};
  const std::vector<double> weights = {1.0, 1.0};
  const double corrected = ModelCrossLaneServiceRate(1.0 / s_b, 2.0, shares, weights);
  EXPECT_NEAR(1.0 / corrected, 0.25, 0.02);
  // No lane data: unchanged.
  EXPECT_EQ(ModelCrossLaneServiceRate(2.4, 2.0, {}, {}), 2.4);
  // Zero arrival rate: nothing to correct.
  EXPECT_EQ(ModelCrossLaneServiceRate(2.4, 0.0, shares, weights), 2.4);
}

}  // namespace
}  // namespace qnet
