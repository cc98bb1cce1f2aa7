// Colored sweep schedule: the conflict-coloring invariant (no two same-color moves share
// a footprint event), schedule partition integrity and geometry, the bucket seed layout,
// and a caller-owned schedule reused across StEM windows.

#include "qnet/infer/sharded_sweep.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/infer/stem.h"
#include "qnet/model/builders.h"
#include "qnet/model/conflict.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/rng.h"

namespace qnet {
namespace {

struct Fixture {
  EventLog truth;
  Observation obs;
  std::vector<double> rates;
  EventLog init;
};

Fixture MakeFixture(const QueueingNetwork& net, double arrival_rate, std::size_t tasks,
                    double fraction, std::uint64_t seed) {
  Rng rng(seed);
  EventLog truth = SimulateWorkload(net, PoissonArrivals(arrival_rate, tasks), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = fraction;
  Observation obs = scheme.Apply(truth, rng);
  std::vector<double> rates = net.ExponentialRates();
  EventLog init = InitializeFeasible(truth, obs, rates, rng);
  return Fixture{std::move(truth), std::move(obs), std::move(rates), std::move(init)};
}

Fixture MakeMm1Fixture(std::size_t tasks = 100, double fraction = 0.2) {
  return MakeFixture(MakeSingleQueueNetwork(2.0, 4.0), 2.0, tasks, fraction, 5);
}

Fixture MakeTandemFixture(std::size_t tasks = 80, double fraction = 0.2) {
  return MakeFixture(MakeTandemNetwork(2.0, {4.0, 3.0, 5.0}), 2.0, tasks, fraction, 7);
}

// --- Conflict coloring -----------------------------------------------------------------

void ExpectColoringConflictFree(const EventLog& log, const std::vector<SweepMove>& moves) {
  const MoveColoring coloring = ColorSweepMoves(log, moves);
  ASSERT_EQ(coloring.color.size(), moves.size());
  ASSERT_GT(coloring.num_colors, 0);
  // Per color class, every footprint event must be touched exactly once: mark and check.
  for (int c = 0; c < coloring.num_colors; ++c) {
    std::vector<char> touched(log.NumEvents(), 0);
    for (std::size_t i = 0; i < moves.size(); ++i) {
      if (coloring.color[i] != c) {
        continue;
      }
      // Events() views the footprint's own storage: keep the footprint alive.
      const auto footprint = log.ComputeMoveFootprint(moves[i]);
      for (EventId e : footprint.Events()) {
        EXPECT_FALSE(touched[static_cast<std::size_t>(e)])
            << "color " << c << " has two moves sharing footprint event " << e;
        touched[static_cast<std::size_t>(e)] = 1;
      }
    }
  }
}

TEST(ConflictColoring, SameColorMovesNeverShareFootprintEventsMm1) {
  const Fixture fixture = MakeMm1Fixture();
  const GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  ExpectColoringConflictFree(sampler.State(), sampler.SweepMoves());
}

TEST(ConflictColoring, SameColorMovesNeverShareFootprintEventsTandem) {
  const Fixture fixture = MakeTandemFixture();
  const GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  ExpectColoringConflictFree(sampler.State(), sampler.SweepMoves());
}

TEST(ConflictColoring, AdjacentQueueNeighborsConflict) {
  // Arrival moves on e and nu(e) always conflict (rho(nu(e)) == e lies in both
  // footprints), so a dense latent scan needs more than one color.
  const Fixture fixture = MakeTandemFixture(60, 0.0);  // everything latent
  const GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  const std::vector<SweepMove> moves = sampler.SweepMoves();
  const MoveColoring coloring = ColorSweepMoves(sampler.State(), moves);
  EXPECT_GE(coloring.num_colors, 2);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    for (std::size_t j = i + 1; j < moves.size(); ++j) {
      const MoveFootprint a = sampler.State().ComputeMoveFootprint(moves[i]);
      const MoveFootprint b = sampler.State().ComputeMoveFootprint(moves[j]);
      if (a.Intersects(b)) {
        EXPECT_NE(coloring.color[i], coloring.color[j])
            << "conflicting moves " << i << " and " << j << " share a color";
      }
    }
  }
}

TEST(ConflictColoring, FeedbackRevisitsStayInsideTheColorBound) {
  // The incidence worst case a tandem never reaches: one queue with retries and every
  // time latent, so consecutive same-queue visits have rho(e) == pi(e) and nu(pi) == e,
  // and every event is the e, pi, rho or nu of several moves. The header's bound says an
  // event lies in at most 9 footprints and first-fit needs at most kMaxSweepColors.
  const QueueingNetwork net = MakeFeedbackNetwork(2.0, 6.0, 0.9);
  const Fixture fixture = MakeFixture(net, 2.0, 40, 0.0, 11);
  const GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  const EventLog& log = sampler.State();
  const std::vector<SweepMove> moves = sampler.SweepMoves();
  ASSERT_EQ(sampler.NumLatentArrivals() + sampler.NumLatentFinalDepartures(), moves.size());
  std::size_t rho_is_pi = 0;
  std::size_t nu_pi_is_e = 0;
  for (const SweepMove& move : moves) {
    if (move.kind == MoveKind::kArrival) {
      const Event& ev = log.At(move.event);
      rho_is_pi += ev.rho == ev.pi ? 1 : 0;
      nu_pi_is_e += log.At(ev.pi).nu == move.event ? 1 : 0;
    }
  }
  ASSERT_GT(rho_is_pi, 0u);
  ASSERT_GT(nu_pi_is_e, 0u);
  std::vector<int> footprints_holding(log.NumEvents(), 0);
  for (const SweepMove& move : moves) {
    const MoveFootprint footprint = log.ComputeMoveFootprint(move);
    for (EventId e : footprint.Events()) {
      ++footprints_holding[static_cast<std::size_t>(e)];
    }
  }
  EXPECT_LE(*std::max_element(footprints_holding.begin(), footprints_holding.end()), 9);
  ExpectColoringConflictFree(log, moves);
  const MoveColoring coloring = ColorSweepMoves(log, moves);
  EXPECT_LE(coloring.num_colors, kMaxSweepColors);
}

TEST(ConflictColoring, GoldenFirstFitColorsOfASmallTandem) {
  // The first-fit colors of a fixed 12-task tandem trace (36 moves: 27 latent arrivals,
  // then 9 final departures), recorded from the event -> move incidence-list coloring the
  // per-event color masks replaced. The schedule, and with it every sampled value, is a
  // function of these colors.
  const Fixture fixture = MakeTandemFixture(12, 0.25);
  const GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  const std::vector<SweepMove> moves = sampler.SweepMoves();
  const MoveColoring coloring = ColorSweepMoves(sampler.State(), moves);
  const std::vector<int> golden = {0, 1, 0, 2, 3, 2, 4, 5, 4, 0, 1, 0, 2, 3, 2, 0, 1, 0,
                                   2, 3, 2, 0, 1, 0, 4, 5, 4, 1, 3, 5, 1, 3, 1, 3, 1, 5};
  ASSERT_EQ(moves.size(), golden.size());
  EXPECT_EQ(sampler.NumLatentArrivals(), 27u);
  EXPECT_EQ(coloring.color, golden);
  EXPECT_EQ(coloring.num_colors, 6);
}

TEST(ConflictColoring, EmptyMoveListColorsTrivially) {
  const Fixture fixture = MakeMm1Fixture();
  const MoveColoring coloring = ColorSweepMoves(fixture.init, {});
  EXPECT_EQ(coloring.num_colors, 0);
  EXPECT_TRUE(coloring.color.empty());
}

// --- Footprints ------------------------------------------------------------------------

TEST(MoveFootprint, ArrivalFootprintCoversReadAndWriteSet) {
  const Fixture fixture = MakeTandemFixture();
  const EventLog& log = fixture.init;
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    const Event& ev = log.At(e);
    if (ev.initial) {
      continue;
    }
    const MoveFootprint fp = log.ComputeMoveFootprint({MoveKind::kArrival, e});
    ASSERT_LE(fp.count, MoveFootprint::kMaxEvents);
    EXPECT_TRUE(fp.Contains(e));
    EXPECT_TRUE(fp.Contains(ev.pi));  // d_pi is written
    const Event& pi = log.At(ev.pi);
    if (pi.rho != kNoEvent) {
      EXPECT_TRUE(fp.Contains(pi.rho));
    }
    if (ev.rho != kNoEvent) {
      EXPECT_TRUE(fp.Contains(ev.rho));
    }
    if (ev.nu != kNoEvent) {
      EXPECT_TRUE(fp.Contains(ev.nu));
    }
    if (pi.nu != kNoEvent) {
      EXPECT_TRUE(fp.Contains(pi.nu));
    }
    // No duplicates.
    for (std::size_t i = 0; i < fp.count; ++i) {
      for (std::size_t j = i + 1; j < fp.count; ++j) {
        EXPECT_NE(fp.events[i], fp.events[j]);
      }
    }
  }
}

TEST(MoveFootprint, FinalDepartureFootprintIsBoundedByThree) {
  const Fixture fixture = MakeMm1Fixture();
  const EventLog& log = fixture.init;
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    const Event& ev = log.At(e);
    if (ev.tau != kNoEvent) {
      continue;
    }
    const MoveFootprint fp = log.ComputeMoveFootprint({MoveKind::kFinalDeparture, e});
    EXPECT_LE(fp.count, 3u);
    EXPECT_TRUE(fp.Contains(e));
    if (ev.rho != kNoEvent) {
      EXPECT_TRUE(fp.Contains(ev.rho));
    }
    if (ev.nu != kNoEvent) {
      EXPECT_TRUE(fp.Contains(ev.nu));
    }
  }
}

TEST(MoveFootprint, RejectsInvalidMoves) {
  const Fixture fixture = MakeMm1Fixture();
  const EventLog& log = fixture.init;
  const EventId initial = log.TaskEvents(0).front();
  EXPECT_THROW(log.ComputeMoveFootprint({MoveKind::kArrival, initial}), Error);
  // First visit of a multi-visit task has a successor: no final-departure move.
  const EventId first_visit = log.TaskEvents(0)[1];
  if (log.At(first_visit).tau != kNoEvent) {
    EXPECT_THROW(log.ComputeMoveFootprint({MoveKind::kFinalDeparture, first_visit}), Error);
  }
}

// --- Scheduler partition ---------------------------------------------------------------

TEST(ShardedSweep, SchedulePartitionsEveryMoveExactlyOnce) {
  const Fixture fixture = MakeTandemFixture();
  const GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  const std::vector<SweepMove> moves = sampler.SweepMoves();
  const ShardedSweepScheduler scheduler(sampler.State(), moves);
  EXPECT_EQ(scheduler.NumMoves(), moves.size());

  std::vector<SweepMove> scheduled;
  for (std::size_t c = 0; c < scheduler.NumColors(); ++c) {
    const auto bucket = scheduler.Bucket(c);
    EXPECT_FALSE(bucket.empty()) << "color " << c;
    scheduled.insert(scheduled.end(), bucket.begin(), bucket.end());
  }
  ASSERT_EQ(scheduled.size(), moves.size());
  const auto key = [](const SweepMove& m) {
    return (static_cast<std::int64_t>(m.event) << 1) |
           (m.kind == MoveKind::kFinalDeparture ? 1 : 0);
  };
  std::vector<std::int64_t> a, b;
  for (const SweepMove& m : moves) a.push_back(key(m));
  for (const SweepMove& m : scheduled) b.push_back(key(m));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(ShardedSweep, RunVisitsEveryMoveOnceOneColorClassPerBucket) {
  // One bucket per color class, in color order, each seeded MixSeed(MixSeed(w, c), 0):
  // the seed layout every sampled value depends on.
  const Fixture fixture = MakeMm1Fixture();
  const GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  const std::vector<SweepMove> moves = sampler.SweepMoves();
  const ShardedSweepScheduler scheduler(sampler.State(), moves);
  std::vector<int> visits(fixture.init.NumEvents() * 2, 0);
  std::size_t color = 0;
  scheduler.RunBuckets(
      [&](const SweepBucket& bucket) {
        ASSERT_LT(color, scheduler.NumColors());
        EXPECT_EQ(bucket.moves.data(), scheduler.Bucket(color).data());
        EXPECT_EQ(bucket.moves.size(), scheduler.Bucket(color).size());
        EXPECT_EQ(bucket.seed, MixSeed(MixSeed(1, color), 0)) << "color " << color;
        ++color;
        for (const SweepMove& move : bucket.moves) {
          ++visits[static_cast<std::size_t>(move.event) * 2 +
                   (move.kind == MoveKind::kFinalDeparture ? 1 : 0)];
        }
      },
      /*sweep_seed=*/1);
  EXPECT_EQ(color, scheduler.NumColors());
  std::size_t total = 0;
  for (int v : visits) {
    EXPECT_LE(v, 1);
    total += static_cast<std::size_t>(v);
  }
  EXPECT_EQ(total, moves.size());
}

TEST(ShardedSweep, BucketGeometryIsEachMovesLinkWalkAcrossRebuilds) {
  // The schedule stores every move's neighbour ids next to it; a Rebuild onto another
  // trace (larger, then smaller, reusing the buffers) must re-resolve every one of them.
  const Fixture small = MakeTandemFixture(60);
  const Fixture large = MakeTandemFixture(240);
  ShardedSweepScheduler scheduler;
  for (const Fixture* fixture : {&small, &large, &small}) {
    const GibbsSampler sampler(fixture->init, fixture->obs, fixture->rates);
    const std::vector<SweepMove> moves = sampler.SweepMoves();
    scheduler.Rebuild(sampler.State(), moves);
    std::size_t checked = 0;
    for (std::size_t c = 0; c < scheduler.NumColors(); ++c) {
      const auto bucket = scheduler.Bucket(c);
      const auto geometry = scheduler.BucketGeometry(c);
      ASSERT_EQ(bucket.size(), geometry.size());
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        EXPECT_EQ(geometry[i], sampler.State().ResolveMoveGeometry(bucket[i]))
            << "event " << bucket[i].event;
        ++checked;
      }
    }
    EXPECT_EQ(checked, moves.size());
  }
}

TEST(ShardedSweep, EmptyMoveListRuns) {
  const Fixture fixture = MakeMm1Fixture();
  const ShardedSweepScheduler scheduler(fixture.init, {});
  scheduler.RunBuckets([](const SweepBucket&) { FAIL() << "no buckets to run"; }, 3);
  EXPECT_EQ(scheduler.NumMoves(), 0u);
  EXPECT_EQ(scheduler.NumColors(), 0u);
}

TEST(ShardedSweep, RejectsShardsOrThreadsOtherThanOne) {
  EXPECT_NO_THROW(ShardedSweepScheduler({.shards = 1, .threads = 1}));
  EXPECT_THROW(ShardedSweepScheduler({.shards = 4, .threads = 1}), Error);
  EXPECT_THROW(ShardedSweepScheduler({.shards = 1, .threads = 2}), Error);
  EXPECT_THROW(ShardedSweepScheduler({.shards = 1, .threads = 0}), Error);
}

// --- Driver integration ----------------------------------------------------------------

TEST(ShardedSweep, ReusedStemWorkspaceMatchesAFreshRunWithOrWithoutSchedulerCache) {
  // One lane's windows, in sequence through one workspace: a small window, a ten times
  // larger one, then a small one again (the workspace's buffers grow, then are reused at
  // a smaller size). Each window is fitted twice on the shared workspace, without and
  // then with StemOptions::scheduler_cache assigned, which has no effect. Every fit must
  // equal fresh StemEstimator::Runs without the field bit for bit, final latent state
  // included, and the assigned scheduler must stay untouched.
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 10.0;
  config.service_rate = 16.0;
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  std::vector<Fixture> windows;
  for (const std::size_t tasks : {std::size_t{300}, std::size_t{3000}, std::size_t{300}}) {
    windows.push_back(MakeFixture(net, 10.0, tasks, 0.2, 100 + tasks + windows.size()));
  }
  StemOptions options;
  options.iterations = 16;
  options.burn_in = 6;
  options.wait_sweeps = 6;
  StemOptions cached = options;
  ShardedSweepScheduler cache;
  cached.scheduler_cache = &cache;
  StemWorkspace workspace;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Fixture& window = windows[w];
    Rng fresh_rng(900 + w);
    StemWorkspace fresh_workspace;
    const StemResult fresh = StemEstimator(options).Run(window.truth, window.obs,
                                                        window.rates, fresh_rng,
                                                        fresh_workspace);
    Rng plain_rng(900 + w);
    const StemResult plain =
        StemEstimator(options).Run(window.truth, window.obs, window.rates, plain_rng);
    for (const StemOptions* reused_options : {&options, &cached}) {
      SCOPED_TRACE(testing::Message() << "window " << w << " scheduler_cache "
                                      << (reused_options->scheduler_cache != nullptr));
      Rng reused_rng(900 + w);
      const StemResult reused = StemEstimator(*reused_options).Run(
          window.truth, window.obs, window.rates, reused_rng, workspace);
      for (const StemResult* other : {&fresh, &plain}) {
        EXPECT_EQ(reused.rates, other->rates);
        EXPECT_EQ(reused.mean_service, other->mean_service);
        EXPECT_EQ(reused.mean_wait, other->mean_wait);
        EXPECT_EQ(reused.rate_trace, other->rate_trace);
        EXPECT_EQ(reused.iterations_run, other->iterations_run);
        EXPECT_EQ(reused.latent_arrivals, other->latent_arrivals);
      }
      EXPECT_EQ(reused_rng.NextU64(), Rng(plain_rng).NextU64());
      const EventLog& a = workspace.State();
      const EventLog& b = fresh_workspace.State();
      ASSERT_EQ(a.NumEvents(), window.truth.NumEvents());
      ASSERT_EQ(a.NumEvents(), b.NumEvents());
      for (EventId e = 0; static_cast<std::size_t>(e) < a.NumEvents(); ++e) {
        ASSERT_EQ(a.Arrival(e), b.Arrival(e)) << "event " << e;
        ASSERT_EQ(a.Departure(e), b.Departure(e)) << "event " << e;
      }
    }
    // Nothing was scheduled on the caller's scheduler.
    EXPECT_EQ(cache.NumMoves(), 0u);
  }
}

}  // namespace
}  // namespace qnet
