// Colored sharded sweeps: the conflict-coloring invariant (no two same-color moves share
// a footprint event), schedule partition integrity, bit-identical results for any thread
// count on M/M/1 and a 3-queue tandem, posterior agreement with the sequential driver,
// and the K-chains × S-shards composition through RunParallelChains / StEM.

#include "qnet/infer/sharded_sweep.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/infer/parallel_chains.h"
#include "qnet/infer/posterior.h"
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
  ShardedSweepOptions options;
  options.shards = 4;
  options.threads = 1;
  const ShardedSweepScheduler scheduler(sampler.State(), moves, options);
  EXPECT_EQ(scheduler.NumMoves(), moves.size());

  std::vector<SweepMove> scheduled;
  for (std::size_t c = 0; c < scheduler.NumColors(); ++c) {
    for (std::size_t s = 0; s < scheduler.NumShards(); ++s) {
      const auto bucket = scheduler.Bucket(c, s);
      scheduled.insert(scheduled.end(), bucket.begin(), bucket.end());
    }
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

TEST(ShardedSweep, RunVisitsEveryMoveOnceAndOnlyConflictFreeBucketsConcurrently) {
  const Fixture fixture = MakeMm1Fixture();
  const GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  const std::vector<SweepMove> moves = sampler.SweepMoves();
  ShardedSweepOptions options;
  options.shards = 3;
  options.threads = 1;
  ShardedSweepScheduler scheduler(sampler.State(), moves, options);
  std::vector<int> visits(fixture.init.NumEvents() * 2, 0);
  scheduler.Run(
      [&](const SweepMove& move, Rng&) {
        ++visits[static_cast<std::size_t>(move.event) * 2 +
                 (move.kind == MoveKind::kFinalDeparture ? 1 : 0)];
      },
      /*sweep_seed=*/1);
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
  ShardedSweepScheduler scheduler({.shards = 3, .threads = 1});
  for (const Fixture* fixture : {&small, &large, &small}) {
    const GibbsSampler sampler(fixture->init, fixture->obs, fixture->rates);
    const std::vector<SweepMove> moves = sampler.SweepMoves();
    scheduler.Rebuild(sampler.State(), moves);
    std::size_t checked = 0;
    for (std::size_t c = 0; c < scheduler.NumColors(); ++c) {
      for (std::size_t s = 0; s < scheduler.NumShards(); ++s) {
        const auto bucket = scheduler.Bucket(c, s);
        const auto geometry = scheduler.BucketGeometry(c, s);
        ASSERT_EQ(bucket.size(), geometry.size());
        for (std::size_t i = 0; i < bucket.size(); ++i) {
          EXPECT_EQ(geometry[i], sampler.State().ResolveMoveGeometry(bucket[i]))
              << "event " << bucket[i].event;
          ++checked;
        }
      }
    }
    EXPECT_EQ(checked, moves.size());
  }
}

TEST(ShardedSweep, EmptyMoveListRuns) {
  const Fixture fixture = MakeMm1Fixture();
  ShardedSweepScheduler scheduler(fixture.init, {}, {});
  scheduler.Run([](const SweepMove&, Rng&) { FAIL() << "no moves to apply"; }, 3);
  EXPECT_EQ(scheduler.NumMoves(), 0u);
  EXPECT_EQ(scheduler.NumColors(), 0u);
}

// --- Determinism across thread counts --------------------------------------------------

struct SweepRunResult {
  EventLog final_state;
  std::vector<double> mean_service;
  std::vector<double> mean_wait;
};

SweepRunResult RunSharded(const Fixture& fixture, std::size_t threads, std::size_t shards,
                          std::uint64_t seed, int sweeps, const GibbsOptions& gibbs = {}) {
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates, gibbs);
  ShardedSweepOptions options;
  options.shards = shards;
  options.threads = threads;
  sampler.EnableShardedSweeps(options);
  EXPECT_TRUE(sampler.ShardedSweepsEnabled());
  Rng rng(seed);
  PosteriorSummary summary(fixture.init.NumQueues());
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    sampler.Sweep(rng);
    summary.Accumulate(sampler.State());
  }
  return SweepRunResult{sampler.State(), summary.MeanService(), summary.MeanWait()};
}

void ExpectBitIdentical(const SweepRunResult& a, const SweepRunResult& b) {
  ASSERT_EQ(a.final_state.NumEvents(), b.final_state.NumEvents());
  for (EventId e = 0; static_cast<std::size_t>(e) < a.final_state.NumEvents(); ++e) {
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit-identical, not merely close.
    EXPECT_EQ(a.final_state.Arrival(e), b.final_state.Arrival(e)) << "event " << e;
    EXPECT_EQ(a.final_state.Departure(e), b.final_state.Departure(e)) << "event " << e;
  }
  ASSERT_EQ(a.mean_service.size(), b.mean_service.size());
  for (std::size_t q = 0; q < a.mean_service.size(); ++q) {
    EXPECT_EQ(a.mean_service[q], b.mean_service[q]) << "q=" << q;
    EXPECT_EQ(a.mean_wait[q], b.mean_wait[q]) << "q=" << q;
  }
}

TEST(ShardedSweep, BitIdenticalForAnyThreadCountMm1) {
  const Fixture fixture = MakeMm1Fixture();
  const SweepRunResult one = RunSharded(fixture, 1, 4, 321, 40);
  const SweepRunResult two = RunSharded(fixture, 2, 4, 321, 40);
  const SweepRunResult four = RunSharded(fixture, 4, 4, 321, 40);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, four);
}

TEST(ShardedSweep, BitIdenticalForAnyThreadCountTandem) {
  const Fixture fixture = MakeTandemFixture();
  const SweepRunResult one = RunSharded(fixture, 1, 4, 77, 40);
  const SweepRunResult two = RunSharded(fixture, 2, 4, 77, 40);
  const SweepRunResult four = RunSharded(fixture, 4, 4, 77, 40);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, four);
}

TEST(ShardedSweep, ScalarKernelBitIdenticalAcrossThreadCounts) {
  // batched = false routes sharded sweeps through the scheduler's per-move Run: each
  // (color, shard) bucket threads its own stream through one RNG-consuming kernel apply
  // per move, so the state must not depend on which thread runs which bucket.
  const Fixture fixture = MakeTandemFixture();
  GibbsOptions scalar;
  scalar.batched = false;
  const SweepRunResult one = RunSharded(fixture, 1, 4, 99, 15, scalar);
  const SweepRunResult two = RunSharded(fixture, 2, 4, 99, 15, scalar);
  const SweepRunResult four = RunSharded(fixture, 4, 4, 99, 15, scalar);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, four);
  bool moved = false;  // the sweeps changed the latent times: the check is not vacuous
  for (EventId e = 0; static_cast<std::size_t>(e) < fixture.init.NumEvents(); ++e) {
    moved = moved || one.final_state.Arrival(e) != fixture.init.Arrival(e);
  }
  EXPECT_TRUE(moved);
}

TEST(ShardedSweep, SweepsStayFeasible) {
  const Fixture fixture = MakeTandemFixture();
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  sampler.EnableShardedSweeps({.shards = 4, .threads = 2});
  Rng rng(13);
  for (int sweep = 0; sweep < 25; ++sweep) {
    sampler.Sweep(rng);
  }
  std::string why;
  EXPECT_TRUE(sampler.State().IsFeasible(1e-6, &why)) << why;
}

// --- Statistical agreement with the sequential driver ----------------------------------

TEST(ShardedSweep, MatchesSequentialPosteriorOnMm1) {
  // Same posterior two ways: the colored sharded scan and the sequential scan are both
  // valid systematic Gibbs scans, so their post-burn-in means must agree within Monte
  // Carlo error (and sit near the true mean service 1/mu = 0.25).
  const Fixture fixture = MakeMm1Fixture(150, 0.25);
  const int kSweeps = 1200;
  const int kBurnIn = 200;

  GibbsSampler sequential(fixture.init, fixture.obs, fixture.rates);
  Rng seq_rng(41);
  PosteriorSummary seq_summary(fixture.init.NumQueues());
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    sequential.Sweep(seq_rng);
    if (sweep >= kBurnIn) {
      seq_summary.Accumulate(sequential.State());
    }
  }

  GibbsSampler sharded(fixture.init, fixture.obs, fixture.rates);
  sharded.EnableShardedSweeps({.shards = 4, .threads = 2});
  Rng shard_rng(43);
  PosteriorSummary shard_summary(fixture.init.NumQueues());
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    sharded.Sweep(shard_rng);
    if (sweep >= kBurnIn) {
      shard_summary.Accumulate(sharded.State());
    }
  }

  const auto seq_service = seq_summary.MeanService();
  const auto shard_service = shard_summary.MeanService();
  EXPECT_NEAR(shard_service[1], seq_service[1], 0.02);
  EXPECT_NEAR(shard_service[1], 0.25, 0.05);
}

// --- Driver integration ----------------------------------------------------------------

TEST(ShardedSweep, RejectsShuffleScan) {
  const Fixture fixture = MakeMm1Fixture();
  GibbsOptions gibbs;
  gibbs.shuffle_scan = true;
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates, gibbs);
  EXPECT_THROW(sampler.EnableShardedSweeps({}), Error);
}

TEST(ShardedSweep, ParallelChainsComposeWithShardedSweeps) {
  // K chains × S shards: pooled output must stay bit-identical across every combination
  // of chain threads and shard threads.
  const Fixture fixture = MakeMm1Fixture();
  ParallelChainsOptions options;
  options.chains = 3;
  options.sweeps = 30;
  options.burn_in = 10;
  options.sharded_sweeps = true;
  options.sharded.shards = 2;

  options.threads = 1;
  options.sharded.threads = 1;
  const ParallelChainsResult serial =
      RunParallelChains(fixture.truth, fixture.obs, fixture.rates, 7, options);
  options.threads = 3;
  options.sharded.threads = 2;
  const ParallelChainsResult parallel =
      RunParallelChains(fixture.truth, fixture.obs, fixture.rates, 7, options);

  ASSERT_EQ(serial.pooled.NumSamples(), parallel.pooled.NumSamples());
  const auto mean_s = serial.pooled.MeanService();
  const auto mean_p = parallel.pooled.MeanService();
  for (std::size_t q = 0; q < mean_s.size(); ++q) {
    EXPECT_EQ(mean_s[q], mean_p[q]) << "q=" << q;
  }
  EXPECT_EQ(serial.max_r_hat, parallel.max_r_hat);
}

TEST(ShardedSweep, StemShardedSweepsAreDeterministic) {
  const Fixture fixture = MakeMm1Fixture(120, 0.3);
  StemOptions options;
  options.iterations = 40;
  options.burn_in = 10;
  options.wait_sweeps = 10;
  options.sharded_sweeps = true;
  options.sharded.shards = 2;

  options.sharded.threads = 1;
  Rng rng_a(3);
  const StemResult a = StemEstimator(options).Run(fixture.truth, fixture.obs, {}, rng_a);
  options.sharded.threads = 2;
  Rng rng_b(3);
  const StemResult b = StemEstimator(options).Run(fixture.truth, fixture.obs, {}, rng_b);

  ASSERT_EQ(a.rates.size(), b.rates.size());
  for (std::size_t q = 0; q < a.rates.size(); ++q) {
    EXPECT_EQ(a.rates[q], b.rates[q]) << "q=" << q;
  }
  // And the estimate is sane: true rates are lambda = 2, mu = 4.
  EXPECT_NEAR(a.rates[1], 4.0, 1.0);
}

TEST(ShardedSweep, ReusedStemWorkspaceMatchesAFreshRunPerWindow) {
  // One lane's windows, in sequence through one workspace and one scheduler cache: a
  // small window, a ten times larger one, then a small one again (the workspace's
  // buffers grow, then are reused at a smaller size). Every window must equal a fresh
  // StemEstimator::Run bit for bit, final latent state included; on 3 threads the
  // schedule, its geometry and the tile scratch are shared across windows too.
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = 10.0;
  config.service_rate = 16.0;
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  std::vector<Fixture> windows;
  for (const std::size_t tasks : {std::size_t{300}, std::size_t{3000}, std::size_t{300}}) {
    windows.push_back(MakeFixture(net, 10.0, tasks, 0.2, 100 + tasks + windows.size()));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    StemOptions options;
    options.iterations = 16;
    options.burn_in = 6;
    options.wait_sweeps = 6;
    options.sharded_sweeps = true;
    options.sharded = {.shards = 3, .threads = threads};
    StemOptions cached = options;
    ShardedSweepScheduler cache(options.sharded);
    cached.scheduler_cache = &cache;
    StemWorkspace workspace;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const Fixture& window = windows[w];
      Rng reused_rng(900 + w);
      const StemResult reused =
          StemEstimator(cached).Run(window.truth, window.obs, window.rates, reused_rng,
                                    workspace);
      Rng fresh_rng(900 + w);
      StemWorkspace fresh_workspace;
      const StemResult fresh = StemEstimator(options).Run(window.truth, window.obs,
                                                          window.rates, fresh_rng,
                                                          fresh_workspace);
      Rng plain_rng(900 + w);
      const StemResult plain =
          StemEstimator(options).Run(window.truth, window.obs, window.rates, plain_rng);
      for (const StemResult* other : {&fresh, &plain}) {
        EXPECT_EQ(reused.rates, other->rates) << "window " << w;
        EXPECT_EQ(reused.mean_service, other->mean_service) << "window " << w;
        EXPECT_EQ(reused.mean_wait, other->mean_wait) << "window " << w;
        EXPECT_EQ(reused.rate_trace, other->rate_trace) << "window " << w;
        EXPECT_EQ(reused.iterations_run, other->iterations_run) << "window " << w;
        EXPECT_EQ(reused.latent_arrivals, other->latent_arrivals) << "window " << w;
      }
      EXPECT_EQ(reused_rng.NextU64(), plain_rng.NextU64()) << "window " << w;
      const EventLog& a = workspace.State();
      const EventLog& b = fresh_workspace.State();
      ASSERT_EQ(a.NumEvents(), window.truth.NumEvents());
      ASSERT_EQ(a.NumEvents(), b.NumEvents());
      for (EventId e = 0; static_cast<std::size_t>(e) < a.NumEvents(); ++e) {
        ASSERT_EQ(a.Arrival(e), b.Arrival(e)) << "window " << w << " event " << e;
        ASSERT_EQ(a.Departure(e), b.Departure(e)) << "window " << w << " event " << e;
      }
    }
  }
}

}  // namespace
}  // namespace qnet
