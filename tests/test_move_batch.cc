// The batched move kernel's three contracts, pinned bottom-up:
//  * vmath — the N-element batch forms are bitwise the scalar inline forms (the
//    bit-identity-by-construction claim), the documented range semantics hold exactly,
//    and accuracy tracks libm to a few ulp;
//  * BatchRng — every lane is the unmodified Rng(MixSeed(bucket_seed, lane)) uniform
//    stream (golden values pinned), and the row fills drain exactly those streams,
//    advancing active lanes only;
//  * PiecewiseExpBatch — FinalizeAll + Sample/SampleAll are bit-identical to
//    PiecewiseExpDensity::Finalize + SampleWith on the same segments and uniforms,
//    across every segment-shape regime the Gibbs builders can emit;
// and top-down: sweeps through the batched kernel are bit-identical to the
// move-at-a-time reference kernel on the same schedule and streams
// (tests/support/reference_sweep.h), for every batch width, thread count, and bucket
// shape (including empty and one-move buckets).

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "support/reference_sweep.h"

#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/infer/piecewise_exp.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/batch_rng.h"
#include "qnet/support/rng.h"
#include "qnet/support/vmath.h"

namespace qnet {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kQNaN = std::numeric_limits<double>::quiet_NaN();

// Bitwise equality that treats any NaN payload as equal to any other (the contract is
// "same value", and the kernels only ever produce quiet NaNs).
void ExpectBitEqual(double a, double b, const char* what, std::size_t i) {
  if (std::isnan(a) && std::isnan(b)) {
    return;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << " lane " << i << ": " << a << " vs " << b;
}

// --- vmath ------------------------------------------------------------------------------

std::vector<double> VmathProbeInputs() {
  std::vector<double> xs = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5,
      // The Expm1/Log1p seam constants and their neighborhoods.
      0.35, -0.35, 0.25, -0.25, 0.350000001, -0.349999999,
      // Exp range limits and just beyond.
      709.0, 709.9, -708.0, -708.5, 1000.0, -1000.0,
      // Log special domain points.
      kInf, -kInf, kQNaN, std::numeric_limits<double>::min() / 2,  // subnormal
      std::numeric_limits<double>::denorm_min(),
  };
  Rng rng(404);
  for (int i = 0; i < 500; ++i) {
    xs.push_back(rng.Uniform(-700.0, 700.0));
    xs.push_back(rng.Uniform(-0.4, 0.4));
    xs.push_back(std::exp(rng.Uniform(-30.0, 30.0)));  // Log/Log1p positive inputs
  }
  return xs;
}

TEST(Vmath, BatchFormsAreBitwiseTheScalarForms) {
  const std::vector<double> xs = VmathProbeInputs();
  std::vector<double> out(xs.size());
  vmath::ExpN(xs, out);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ExpectBitEqual(out[i], vmath::Exp(xs[i]), "ExpN", i);
  }
  vmath::LogN(xs, out);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ExpectBitEqual(out[i], vmath::Log(xs[i]), "LogN", i);
  }
  vmath::Expm1N(xs, out);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ExpectBitEqual(out[i], vmath::Expm1(xs[i]), "Expm1N", i);
  }
  vmath::Log1pN(xs, out);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ExpectBitEqual(out[i], vmath::Log1p(xs[i]), "Log1pN", i);
  }
}

TEST(Vmath, RangeSemanticsAreExact) {
  EXPECT_EQ(vmath::Exp(0.0), 1.0);
  EXPECT_EQ(vmath::Exp(710.0), kInf);
  EXPECT_EQ(vmath::Exp(kInf), kInf);
  EXPECT_EQ(vmath::Exp(-709.0), 0.0);
  EXPECT_EQ(vmath::Exp(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(vmath::Exp(kQNaN)));

  EXPECT_EQ(vmath::Log(1.0), 0.0);
  EXPECT_EQ(vmath::Log(0.0), -kInf);
  EXPECT_EQ(vmath::Log(kInf), kInf);
  EXPECT_TRUE(std::isnan(vmath::Log(-1.0)));
  EXPECT_TRUE(std::isnan(vmath::Log(kQNaN)));

  EXPECT_EQ(vmath::Expm1(0.0), 0.0);
  EXPECT_EQ(vmath::Log1p(0.0), 0.0);
  EXPECT_TRUE(std::isnan(vmath::Expm1(kQNaN)));
  EXPECT_TRUE(std::isnan(vmath::Log1p(kQNaN)));
}

TEST(Vmath, TracksLibmToAFewUlp) {
  const std::vector<double> xs = VmathProbeInputs();
  const auto rel = [](double got, double want) {
    if (want == 0.0 || !std::isfinite(want)) {
      return got == want ? 0.0 : 1.0;
    }
    return std::abs(got - want) / std::abs(want);
  };
  // 1e-14 relative is ~45 ulp of headroom over the measured few-ulp error; far below
  // anything the sampler can feel, tight enough to catch a broken polynomial or table.
  // Subnormal inputs/outputs are excluded: vmath::Exp flushes the denormal tail to zero
  // by documented contract, and Log1p's near-arm quotient loses precision on subnormal
  // x — inputs production code never passes (the range tests above pin the actual
  // behavior there).
  const double tiny = std::numeric_limits<double>::min();
  for (double x : xs) {
    if (std::isnan(x)) {
      continue;
    }
    if (x > -708.0) {
      EXPECT_LT(rel(vmath::Exp(x), std::exp(x)), 1e-14) << "Exp(" << x << ")";
    }
    if (x >= tiny) {
      EXPECT_LT(rel(vmath::Log(x), std::log(x)), 1e-14) << "Log(" << x << ")";
    }
    if (std::abs(x) < 700.0) {
      EXPECT_LT(rel(vmath::Expm1(x), std::expm1(x)), 1e-14) << "Expm1(" << x << ")";
    }
    if (x > -1.0 && std::abs(x) >= tiny) {
      EXPECT_LT(rel(vmath::Log1p(x), std::log1p(x)), 1e-14) << "Log1p(" << x << ")";
    }
  }
}

// --- BatchRng golden streams ------------------------------------------------------------

TEST(BatchRng, EveryLaneIsTheScalarRngStream) {
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xdeadbeef},
                             std::uint64_t{0x12345}}) {
    for (std::size_t width : {std::size_t{1}, std::size_t{5}, kMaxBatchWidth}) {
      BatchRng lanes(seed, width);
      for (std::size_t l = 0; l < width; ++l) {
        Rng scalar(MixSeed(seed, static_cast<std::uint64_t>(l)));
        for (int i = 0; i < 64; ++i) {
          ASSERT_EQ(lanes.Uniform(l), scalar.Uniform())
              << "seed " << seed << " width " << width << " lane " << l << " draw " << i;
        }
      }
    }
  }
}

TEST(BatchRng, PinnedGoldenValues) {
  // First draws of lanes 0..2 for bucket_seed 0x12345, hex-exact. These pin the whole
  // seeding + stepping pipeline (MixSeed -> SplitMix64 expansion -> xoshiro256++ ->
  // 53-bit uniform); any change to any stage moves these bits.
  BatchRng lanes(0x12345, 3);
  const double golden[3][4] = {
      {0x1.5bf7fe74155ebp-1, 0x1.d896f6a7d72ap-3, 0x1.f07daf67f76e2p-1, 0x1.1996a02b03eb8p-4},
      {0x1.7a6cd39c79d6ap-2, 0x1.563eae3cb68fep-1, 0x1.4dcba10a56d82p-2, 0x1.0ccc8eaad62b4p-2},
      {0x1.ff59876d9ac9fp-1, 0x1.7d31b4813578p-6, 0x1.f7f1444bc0ed6p-1, 0x1.5879c091eca66p-1},
  };
  for (int draw = 0; draw < 4; ++draw) {
    for (std::size_t l = 0; l < 3; ++l) {
      EXPECT_EQ(lanes.Uniform(l), golden[l][draw]) << "lane " << l << " draw " << draw;
    }
  }
}

TEST(BatchRng, AdjacentSeedsAndLanesDecorrelate) {
  // Avalanche sanity: MixSeed must separate adjacent bucket seeds and adjacent lanes.
  BatchRng a(1000, 4);
  BatchRng b(1001, 4);
  for (std::size_t l = 0; l < 4; ++l) {
    EXPECT_NE(a.Uniform(l), b.Uniform(l)) << "lane " << l;
  }
  BatchRng c(1000, 4);
  EXPECT_NE(c.Uniform(0), c.Uniform(1));
  EXPECT_NE(c.Uniform(1), c.Uniform(2));
}

TEST(BatchRng, RowFillsDrainTheSameStreamsAndSkipInactiveLanes) {
  const std::uint64_t seed = 777;
  const std::size_t width = 8;
  BatchRng rows(seed, width);
  BatchRng scalar(seed, width);

  // A full row, a tail row (3 active lanes), then a paired double row: per lane the
  // concatenation must equal the scalar drain, and lanes beyond a tail row's width must
  // not advance.
  std::array<double, 8> row0, row1;
  rows.FillUniformRow(std::span<double>(row0.data(), width));
  for (std::size_t l = 0; l < width; ++l) {
    EXPECT_EQ(row0[l], scalar.Uniform(l)) << "full row lane " << l;
  }
  rows.FillUniformRow(std::span<double>(row0.data(), 3));
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(row0[l], scalar.Uniform(l)) << "tail row lane " << l;
  }
  rows.FillUniformRows(std::span<double>(row0.data(), width),
                       std::span<double>(row1.data(), width));
  for (std::size_t l = 0; l < width; ++l) {
    // Lanes 3..7 skipped the tail row, so their streams are one draw behind lanes 0..2 —
    // exactly what the scalar drain (which also skipped them) reproduces.
    EXPECT_EQ(row0[l], scalar.Uniform(l)) << "rows[0] lane " << l;
    EXPECT_EQ(row1[l], scalar.Uniform(l)) << "rows[1] lane " << l;
  }
}

// --- PiecewiseExpBatch vs PiecewiseExpDensity -------------------------------------------

struct SegmentSpec {
  double lo, hi, alpha, beta;
};

// One case per regime of the two-exp mass formula and the inverse-CDF arms: rising,
// falling, numerically flat (|beta * width| below the 1.5e-8 threshold), large positive
// exponent (u >= 30), the unbounded final-departure tail, multi-segment densities, and
// huge log offsets (the log-space normalization the scalar class documents).
const std::vector<std::vector<SegmentSpec>>& DensityCases() {
  static const std::vector<std::vector<SegmentSpec>> cases = {
      {{0.0, 1.0, 0.0, 2.0}},                    // single rising
      {{0.0, 1.0, 0.0, -3.0}},                   // single falling
      {{2.0, 2.5, 1.0, 1e-12}},                  // flat arm: |u| ~ 5e-13
      {{0.0, 1.0, -5.0, 40.0}},                  // big-u arm: u = 40
      {{1.0, kInf, 3.0, -2.0}},                  // unbounded tail
      {{0.0, 0.5, 0.0, 4.0}, {0.5, kInf, 2.0, -6.0}},  // bounded + tail (final departure)
      {{0.0, 0.3, 1.0, 5.0}, {0.3, 0.7, 2.5, -1.0}, {0.7, 1.1, 1.8, -8.0}},  // 3 segments
      {{0.0, 1.0, 1.0e4, 2.0}, {1.0, 2.0, 1.0002e4, -2.0}},  // huge alpha offsets
      {{0.0, 1e-9, 0.0, 1.0}},                   // tiny width (flat via width)
  };
  return cases;
}

TEST(PiecewiseExpBatch, SampleIsBitIdenticalToScalarSampleWith) {
  const auto& cases = DensityCases();
  PiecewiseExpBatch batch;
  std::vector<PiecewiseExpDensity> scalars(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::size_t m = batch.BeginMove();
    ASSERT_EQ(m, c);
    for (const SegmentSpec& s : cases[c]) {
      batch.AddSegment(s.lo, s.hi, s.alpha, s.beta);
      scalars[c].AddSegment(s.lo, s.hi, s.alpha, s.beta);
    }
    scalars[c].Finalize();
  }
  batch.FinalizeAll();
  const double quantiles[] = {1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ASSERT_EQ(batch.NumSegments(c), scalars[c].NumSegments());
    for (double p : quantiles) {
      for (double v : quantiles) {
        const double want = scalars[c].SampleWith(p, v);
        const double got = batch.Sample(c, p, v);
        EXPECT_EQ(got, want) << "case " << c << " p=" << p << " v=" << v;
      }
    }
  }
}

TEST(PiecewiseExpBatch, SampleAllMatchesPerSlotSampleAndSkipsEmptySlots) {
  const auto& cases = DensityCases();
  PiecewiseExpBatch batch;
  std::vector<bool> empty;
  // Interleave an empty (degenerate-window) slot after every second density.
  for (std::size_t c = 0; c < cases.size(); ++c) {
    batch.BeginMove();
    for (const SegmentSpec& s : cases[c]) {
      batch.AddSegment(s.lo, s.hi, s.alpha, s.beta);
    }
    empty.push_back(false);
    if (c % 2 == 1) {
      batch.BeginMove();  // no segments: the kernel's degenerate-window slot
      empty.push_back(true);
    }
  }
  batch.FinalizeAll();
  const std::size_t n = batch.NumMoves();
  std::vector<double> picks(n), invs(n), out(n, -123.0);
  Rng rng(31);
  for (std::size_t m = 0; m < n; ++m) {
    picks[m] = rng.Uniform();
    invs[m] = rng.Uniform();
  }
  batch.SampleAll(picks, invs, out);
  for (std::size_t m = 0; m < n; ++m) {
    if (empty[m]) {
      EXPECT_EQ(out[m], -123.0) << "empty slot " << m << " must be left untouched";
    } else {
      EXPECT_EQ(out[m], batch.Sample(m, picks[m], invs[m])) << "slot " << m;
    }
  }
}

TEST(PiecewiseExpBatch, ClearedBatchReusesSlotsAcrossRankShrink) {
  // First fill: three-segment moves populate every rank. After Clear, a batch of
  // one-segment moves must ignore the stale rank-1/2 data (dead ranks self-neutralize,
  // and the rectangular passes stop at the new live-rank bound).
  PiecewiseExpBatch batch;
  for (int m = 0; m < 4; ++m) {
    batch.BeginMove();
    batch.AddSegment(0.0, 0.3, 1.0, 5.0);
    batch.AddSegment(0.3, 0.7, 2.5, -1.0);
    batch.AddSegment(0.7, 1.1, 1.8, -8.0);
  }
  batch.FinalizeAll();

  batch.Clear();
  PiecewiseExpDensity scalar;
  scalar.AddSegment(0.0, 2.0, 0.5, -1.5);
  scalar.Finalize();
  for (int m = 0; m < 4; ++m) {
    batch.BeginMove();
    batch.AddSegment(0.0, 2.0, 0.5, -1.5);
  }
  batch.FinalizeAll();
  for (int m = 0; m < 4; ++m) {
    for (double p : {0.05, 0.95}) {
      EXPECT_EQ(batch.Sample(static_cast<std::size_t>(m), p, 0.5),
                scalar.SampleWith(p, 0.5))
          << "slot " << m << " p=" << p;
    }
  }
}

// --- Kernel level: batched vs reference on real sweeps ----------------------------------

struct Fixture {
  EventLog truth;
  Observation obs;
  std::vector<double> rates;
  EventLog init;
};

Fixture MakeFixture(std::size_t tasks, double fraction, std::uint64_t seed) {
  ThreeTierConfig config;
  config.tier_sizes = {1, 2, 2};
  const QueueingNetwork net = MakeThreeTierNetwork(config);
  Rng rng(seed);
  EventLog truth = SimulateWorkload(net, PoissonArrivals(10.0, tasks), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = fraction;
  Observation obs = scheme.Apply(truth, rng);
  std::vector<double> rates = net.ExponentialRates();
  EventLog init = InitializeFeasible(truth, obs, rates, rng);
  return Fixture{std::move(truth), std::move(obs), std::move(rates), std::move(init)};
}

EventLog SamplerSweeps(const Fixture& fixture, const GibbsOptions& options, int sweeps,
                       std::uint64_t seed, const ShardedSweepOptions* sharded = nullptr) {
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates, options);
  if (sharded != nullptr) {
    sampler.EnableShardedSweeps(*sharded);
  }
  Rng rng(seed);
  for (int s = 0; s < sweeps; ++s) {
    sampler.Sweep(rng);
  }
  return sampler.State();
}

// The same sweeps through the move-at-a-time reference kernel on the same schedule.
EventLog ReferenceSweeps(const Fixture& fixture, const GibbsOptions& options, int sweeps,
                         std::uint64_t seed,
                         const ShardedSweepOptions& sharded = {.shards = 1, .threads = 1}) {
  qnet_testing::ReferenceSweeper reference(fixture.init, fixture.obs, fixture.rates, options,
                                           sharded);
  Rng rng(seed);
  for (int s = 0; s < sweeps; ++s) {
    reference.Sweep(rng);
  }
  return reference.State();
}

void ExpectStatesBitEqual(const EventLog& a, const EventLog& b, const char* what) {
  ASSERT_EQ(a.NumEvents(), b.NumEvents());
  for (EventId e = 0; static_cast<std::size_t>(e) < a.NumEvents(); ++e) {
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit-identical, not merely close.
    ASSERT_EQ(a.Arrival(e), b.Arrival(e)) << what << ": arrival of event " << e;
    ASSERT_EQ(a.Departure(e), b.Departure(e)) << what << ": departure of event " << e;
  }
}

TEST(BatchedKernel, BitIdenticalToReferenceAcrossBatchWidths) {
  const Fixture fixture = MakeFixture(120, 0.1, 99);
  // Widths straddling the tile boundary shapes: 1 (every tile is one move), a width
  // that never divides the bucket sizes evenly, the default, and neighbors of 8.
  for (std::size_t width : {std::size_t{1}, std::size_t{5}, std::size_t{8}, std::size_t{9},
                            kMaxBatchWidth}) {
    GibbsOptions options;
    options.batch_width = width;
    const EventLog a = SamplerSweeps(fixture, options, 25, 1234);
    const EventLog b = ReferenceSweeps(fixture, options, 25, 1234);
    ExpectStatesBitEqual(a, b, "batched vs reference");
  }
}

TEST(BatchedKernel, BitIdenticalAcrossThreadCountsAndToReference) {
  const Fixture fixture = MakeFixture(120, 0.1, 99);
  GibbsOptions options;
  ShardedSweepOptions sharded;
  sharded.shards = 4;

  sharded.threads = 1;
  const EventLog one = SamplerSweeps(fixture, options, 25, 88, &sharded);
  sharded.threads = 2;
  const EventLog two = SamplerSweeps(fixture, options, 25, 88, &sharded);
  sharded.threads = 4;
  const EventLog four = SamplerSweeps(fixture, options, 25, 88, &sharded);
  ExpectStatesBitEqual(one, two, "1 vs 2 threads");
  ExpectStatesBitEqual(one, four, "1 vs 4 threads");

  // The reference kernel on the same 4-shard schedule must also match: thread count and
  // execution style (tiles vs move-at-a-time) are both invisible to the result.
  sharded.threads = 2;
  const EventLog ref = ReferenceSweeps(fixture, options, 25, 88, sharded);
  ExpectStatesBitEqual(one, ref, "batched vs reference on shards");
}

TEST(BatchedKernel, TinyAndEmptyBucketsMatchReference) {
  // A small trace over many shards produces buckets far narrower than the batch width —
  // including empty and one-move buckets; every tile is then a tail tile.
  const Fixture fixture = MakeFixture(8, 0.3, 41);
  const GibbsOptions options;
  ShardedSweepOptions sharded;
  sharded.shards = 8;
  sharded.threads = 1;
  const EventLog a = SamplerSweeps(fixture, options, 30, 5, &sharded);
  const EventLog b = ReferenceSweeps(fixture, options, 30, 5, sharded);
  ExpectStatesBitEqual(a, b, "tiny buckets");
}

TEST(BatchedKernel, ScheduleGeometryMatchesLinkWalkOnFeedbackRevisits) {
  // RunBucket reads every neighbour id from the schedule's geometry, resolved once per
  // Rebuild; RunBucketReference walks the links per move. A single queue with retries
  // gives the geometry cases a tandem or tier network never does: consecutive same-queue
  // visits where rho(e) == pi(e) and nu(pi) == e, next to moves whose pi-side and e-side
  // neighbours differ, plus final departures with a bounded (nu(e) present) and an
  // unbounded (last arrival at the queue) tail.
  const QueueingNetwork net = MakeFeedbackNetwork(2.0, 6.0, 0.4);
  Rng rng(62);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 150), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.3;
  const Observation obs = scheme.Apply(truth, rng);
  const std::vector<double> rates = net.ExponentialRates();
  const Fixture fixture{truth, obs, rates, InitializeFeasible(truth, obs, rates, rng)};

  std::size_t rho_is_pi = 0;
  std::size_t nu_pi_is_e = 0;
  std::size_t distinct_neighbours = 0;
  std::size_t bounded_finals = 0;
  std::size_t unbounded_finals = 0;
  const GibbsSampler probe(fixture.init, fixture.obs, fixture.rates);
  for (const SweepMove& move : probe.SweepMoves()) {
    const Event& ev = fixture.init.At(move.event);
    if (move.kind == MoveKind::kArrival) {
      rho_is_pi += ev.rho == ev.pi ? 1 : 0;
      nu_pi_is_e += fixture.init.At(ev.pi).nu == move.event ? 1 : 0;
      distinct_neighbours += (ev.rho != ev.pi && ev.rho != kNoEvent) ? 1 : 0;
    } else {
      (ev.nu == kNoEvent ? unbounded_finals : bounded_finals) += 1;
    }
  }
  ASSERT_GT(rho_is_pi, 0u);
  ASSERT_GT(nu_pi_is_e, 0u);
  ASSERT_GT(distinct_neighbours, 0u);
  ASSERT_GT(bounded_finals, 0u);
  ASSERT_GT(unbounded_finals, 0u);

  for (const std::size_t width : {std::size_t{1}, std::size_t{7}, kMaxBatchWidth}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        if (threads > shards) {
          continue;
        }
        SCOPED_TRACE(testing::Message() << "width " << width << " shards " << shards
                                        << " threads " << threads);
        GibbsOptions options;
        options.batch_width = width;
        const ShardedSweepOptions sharded{.shards = shards, .threads = threads};
        const EventLog a = SamplerSweeps(fixture, options, 20, 4321, &sharded);
        const EventLog b = ReferenceSweeps(fixture, options, 20, 4321, sharded);
        ExpectStatesBitEqual(a, b, "geometry vs link walk");
      }
    }
  }
}

TEST(BatchedKernel, FullyObservedTraceSweepsAsNoOp) {
  // fraction = 1 observes every task: zero latent moves, so a batched sweep must run
  // (and do nothing) without tripping the schedule build or the kernel's empty-bucket
  // handling.
  const Fixture fixture = MakeFixture(10, 1.0, 17);
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  ASSERT_EQ(sampler.NumLatentArrivals(), 0u);
  Rng rng(3);
  sampler.Sweep(rng);
  ExpectStatesBitEqual(sampler.State(), fixture.init, "no-op sweep");
}

TEST(BatchedKernel, StaysFeasibleAndMixes) {
  // End-to-end sanity on the production configuration: states remain feasible and the
  // sampler actually moves the latent coordinates.
  const Fixture fixture = MakeFixture(120, 0.1, 99);
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  Rng rng(23);
  for (int s = 0; s < 50; ++s) {
    sampler.Sweep(rng);
  }
  std::string why;
  EXPECT_TRUE(sampler.State().IsFeasible(1e-6, &why)) << why;
  std::size_t moved = 0;
  for (EventId e = 0; static_cast<std::size_t>(e) < fixture.init.NumEvents(); ++e) {
    if (sampler.State().Arrival(e) != fixture.init.Arrival(e)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
}

}  // namespace
}  // namespace qnet
