// The batched move kernel's four contracts, pinned bottom-up:
//  * vmath — the N-element batch forms are bitwise the scalar inline forms (the
//    bit-identity-by-construction claim), the documented range semantics hold exactly,
//    and accuracy tracks libm to a few ulp;
//  * BatchRng — every lane is the unmodified Rng(MixSeed(bucket_seed, lane)) uniform
//    stream (golden values pinned), and the row fills drain exactly those streams,
//    advancing active lanes only;
//  * PiecewiseExpBatch — FinalizeAll + SampleAll are bit-identical to
//    PiecewiseExpDensity::Finalize + SampleWith on the same segments and uniforms,
//    across every segment-shape regime the Gibbs builders can emit, at every tile size;
//  * BuildSegmentRows — the fixed-rank tile build emits the template builders'
//    segments bit for bit;
// and top-down: sweeps through the batched kernel are bit-identical to the
// move-at-a-time reference kernel on the same schedule and streams
// (tests/support/reference_sweep.h), for every batch width and bucket shape (including
// buckets narrower than one tile and degenerate-window moves).

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "support/reference_sweep.h"

#include "qnet/infer/conditional.h"
#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/infer/move_kernel.h"
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

// Loads one density per move slot into the batch; an empty list is an empty
// (degenerate-window) slot. Zero-width segments are skipped, as
// PiecewiseExpDensity::AddSegment does.
void LoadDensities(const std::vector<std::vector<SegmentSpec>>& densities,
                   PiecewiseExpBatch& batch) {
  PiecewiseExpBatch::SegmentRows rows{};
  for (std::size_t m = 0; m < densities.size(); ++m) {
    std::uint32_t count = 0;
    for (const SegmentSpec& s : densities[m]) {
      if (!(s.lo < s.hi)) {
        continue;
      }
      const std::size_t i = count * PiecewiseExpBatch::kMaxMoves + m;
      rows.lo[i] = s.lo;
      rows.hi[i] = s.hi;
      rows.alpha[i] = s.alpha;
      rows.beta[i] = s.beta;
      ++count;
    }
    rows.counts[m] = count;
  }
  batch.Load(rows, densities.size());
}

TEST(PiecewiseExpBatch, SampleIsBitIdenticalToScalarSampleWith) {
  const auto& cases = DensityCases();
  PiecewiseExpBatch batch;
  std::vector<PiecewiseExpDensity> scalars(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const SegmentSpec& s : cases[c]) {
      scalars[c].AddSegment(s.lo, s.hi, s.alpha, s.beta);
    }
    scalars[c].Finalize();
  }
  LoadDensities(cases, batch);
  batch.FinalizeAll();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ASSERT_EQ(batch.NumSegments(c), scalars[c].NumSegments());
  }
  const double quantiles[] = {1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9};
  const std::size_t n = cases.size();
  std::vector<double> picks(n), invs(n), out(n);
  for (double p : quantiles) {
    for (double v : quantiles) {
      std::fill(picks.begin(), picks.end(), p);
      std::fill(invs.begin(), invs.end(), v);
      batch.SampleAll(picks, invs, out);
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(out[c], scalars[c].SampleWith(p, v)) << "case " << c << " p=" << p
                                                       << " v=" << v;
      }
    }
  }
}

TEST(PiecewiseExpBatch, SampleAllMatchesScalarSampleWithAndSkipsEmptySlots) {
  const auto& cases = DensityCases();
  PiecewiseExpBatch batch;
  std::vector<std::vector<SegmentSpec>> slots;
  std::vector<PiecewiseExpDensity> scalars;
  // Interleave an empty (degenerate-window) slot after every second density.
  for (std::size_t c = 0; c < cases.size(); ++c) {
    slots.push_back(cases[c]);
    scalars.emplace_back();
    for (const SegmentSpec& s : cases[c]) {
      scalars.back().AddSegment(s.lo, s.hi, s.alpha, s.beta);
    }
    scalars.back().Finalize();
    if (c % 2 == 1) {
      slots.emplace_back();  // no segments: the kernel's degenerate-window slot
      scalars.emplace_back();
    }
  }
  LoadDensities(slots, batch);
  batch.FinalizeAll();
  const std::size_t n = slots.size();
  std::vector<double> picks(n), invs(n), out(n, -123.0);
  Rng rng(31);
  for (std::size_t m = 0; m < n; ++m) {
    picks[m] = rng.Uniform();
    invs[m] = rng.Uniform();
  }
  batch.SampleAll(picks, invs, out);
  for (std::size_t m = 0; m < n; ++m) {
    if (slots[m].empty()) {
      EXPECT_EQ(out[m], -123.0) << "empty slot " << m << " must be left untouched";
    } else {
      EXPECT_EQ(out[m], scalars[m].SampleWith(picks[m], invs[m])) << "slot " << m;
    }
  }
}

// Segment regimes of the full-tile test, one per arm of the mass formula and the
// inverse-CDF: a sloped segment, an exact beta == 0 segment (what the final-departure
// and arrival conditionals emit), |u| ~ 1e-13 (flat sampling arm, nonzero beta), a
// 1e-9-wide segment (flat mass arm only), a rising u >= 30 segment (the overflow-safe
// arm) and the unbounded tail (last segment only).
enum class Regime { kSloped, kZeroBeta, kTinyU, kTinyWidth, kBigU, kTail };

// A random density of 1-3 contiguous segments whose peak log values all lie in [-3, 3],
// so every segment keeps a fair share of the mass and every arm gets picked.
std::vector<SegmentSpec> RandomDensity(Rng& rng) {
  const std::size_t count = 1 + rng.UniformInt(3);
  std::vector<SegmentSpec> segments;
  double lo = rng.Uniform(-5.0, 5.0);
  for (std::size_t k = 0; k < count; ++k) {
    const bool last = k + 1 == count;
    const auto regime = static_cast<Regime>(rng.UniformInt(last ? 6 : 5));
    double width = regime == Regime::kTinyWidth ? 1e-9 : rng.Uniform(0.01, 3.0);
    double beta = 0.0;
    switch (regime) {
      case Regime::kSloped:
        beta = (rng.Bernoulli(0.5) ? 1.0 : -1.0) * rng.Uniform(0.05, 8.0);
        break;
      case Regime::kZeroBeta:
        break;
      case Regime::kTinyU:
        beta = (rng.Bernoulli(0.5) ? 1.0 : -1.0) * rng.Uniform(0.5, 2.0) * 1e-13 / width;
        break;
      case Regime::kTinyWidth:
        beta = rng.Uniform(-4.0, 4.0);
        break;
      case Regime::kBigU:
        beta = rng.Uniform(30.0, 60.0) / width;
        break;
      case Regime::kTail:
        width = kInf;
        beta = -rng.Uniform(0.05, 8.0);
        break;
    }
    const double hi = lo + width;
    const double peak = rng.Uniform(-3.0, 3.0);
    const double alpha = (beta > 0.0 && hi != kInf) ? peak - beta * hi : peak - beta * lo;
    segments.push_back({lo, hi, alpha, beta});
    lo = hi;
  }
  return segments;
}

TEST(PiecewiseExpBatch, EveryTileSizeSamplesBitIdenticalToScalarSampleWith) {
  // Tiles of every size 1..kMaxMoves, filled with seeded mixes of every regime and of
  // empty (degenerate-window) slots, through FinalizeAll + SampleAll on one reused batch:
  // each live slot must equal PiecewiseExpDensity::SampleWith on the same segments and
  // uniforms bit for bit, and each empty slot must keep what the caller wrote there.
  PiecewiseExpBatch batch;
  Rng rng(20261019);
  std::size_t flat_lanes = 0;    // picked segment's |u| < 1e-12 (the flat select)
  std::size_t big_u_lanes = 0;   // picked segment's u >= 30 (the scalar patch-up)
  std::size_t tail_lanes = 0;    // picked segment unbounded
  std::size_t empty_slots = 0;
  for (std::size_t tile = 1; tile <= PiecewiseExpBatch::kMaxMoves; ++tile) {
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(testing::Message() << "tile " << tile << " trial " << trial);
      std::vector<PiecewiseExpDensity> scalars(tile);
      std::vector<std::vector<SegmentSpec>> specs(tile);
      for (std::size_t m = 0; m < tile; ++m) {
        if (rng.Bernoulli(0.15)) {
          continue;  // empty slot
        }
        specs[m] = RandomDensity(rng);
        for (const SegmentSpec& s : specs[m]) {
          scalars[m].AddSegment(s.lo, s.hi, s.alpha, s.beta);
        }
        scalars[m].Finalize();
      }
      LoadDensities(specs, batch);
      batch.FinalizeAll();
      std::vector<double> picks(tile), invs(tile), out(tile);
      for (std::size_t m = 0; m < tile; ++m) {
        picks[m] = rng.Uniform();
        invs[m] = rng.Uniform();
        out[m] = -1000.0 - static_cast<double>(m);
      }
      batch.SampleAll(picks, invs, out);
      for (std::size_t m = 0; m < tile; ++m) {
        if (specs[m].empty()) {
          ++empty_slots;
          EXPECT_EQ(out[m], -1000.0 - static_cast<double>(m)) << "empty slot " << m;
          continue;
        }
        ExpectBitEqual(out[m], scalars[m].SampleWith(picks[m], invs[m]), "SampleAll", m);
        for (const SegmentSpec& s : specs[m]) {
          if (out[m] >= s.lo && out[m] <= s.hi) {
            const double u = s.beta * (s.hi - s.lo);
            flat_lanes += std::abs(u) < 1e-12 ? 1 : 0;
            big_u_lanes += u >= 30.0 ? 1 : 0;
            tail_lanes += s.hi == kInf ? 1 : 0;
            break;
          }
        }
      }
    }
  }
  // Every arm must actually have been sampled, or the bit-equality above pins nothing.
  EXPECT_GT(flat_lanes, 500u);
  EXPECT_GT(big_u_lanes, 500u);
  EXPECT_GT(tail_lanes, 500u);
  EXPECT_GT(empty_slots, 500u);
}

TEST(PiecewiseExpBatch, ReloadedBatchReusesSlotsAcrossRankShrink) {
  // First load: three-segment moves populate every rank. Reloaded with one-segment
  // moves, the batch must ignore its stale rank-1/2 data (unused ranks self-neutralize,
  // and the rectangular passes stop at the new live-rank bound).
  PiecewiseExpBatch batch;
  LoadDensities(std::vector<std::vector<SegmentSpec>>(
                    4, {{0.0, 0.3, 1.0, 5.0}, {0.3, 0.7, 2.5, -1.0}, {0.7, 1.1, 1.8, -8.0}}),
                batch);
  batch.FinalizeAll();

  PiecewiseExpDensity scalar;
  scalar.AddSegment(0.0, 2.0, 0.5, -1.5);
  scalar.Finalize();
  LoadDensities(std::vector<std::vector<SegmentSpec>>(4, {{0.0, 2.0, 0.5, -1.5}}), batch);
  batch.FinalizeAll();
  const std::array<double, 4> invs = {0.5, 0.5, 0.5, 0.5};
  std::array<double, 4> out{};
  for (double p : {0.05, 0.95}) {
    const std::array<double, 4> picks = {p, p, p, p};
    batch.SampleAll(picks, invs, out);
    for (std::size_t m = 0; m < 4; ++m) {
      EXPECT_EQ(out[m], scalar.SampleWith(p, 0.5)) << "slot " << m << " p=" << p;
    }
  }
}

// Random conditionals covering every branch of the segment builders: missing, outside,
// inside, coinciding and swapped breakpoints, flat (t_nu <= L) and unbounded
// final-departure windows, and degenerate windows.
ArrivalMove RandomArrivalMove(Rng& rng) {
  ArrivalMove m;
  m.lower = rng.Uniform(0.0, 10.0);
  m.upper = m.lower + (rng.Bernoulli(0.05) ? 1e-13 : rng.Uniform(0.05, 3.0));
  m.mu_e = rng.Uniform(0.2, 5.0);
  m.mu_pi = rng.Bernoulli(0.1) ? m.mu_e : rng.Uniform(0.2, 5.0);
  m.d_e = m.upper + rng.Uniform(0.0, 1.0);
  m.c_pi = m.lower - rng.Uniform(0.0, 1.0);
  const auto breakpoint = [&] {
    switch (rng.UniformInt(6)) {
      case 0:
        return m.lower - rng.Uniform(0.0, 1.0);
      case 1:
        return m.upper + rng.Uniform(0.0, 1.0);
      case 2:
        return rng.Bernoulli(0.5) ? m.lower : m.upper;
      default:
        return rng.Uniform(m.lower, m.upper);
    }
  };
  m.has_t1 = rng.Bernoulli(0.7);
  m.t1 = m.has_t1 ? breakpoint() : 0.0;
  m.has_nu_pi = rng.Bernoulli(0.7);
  m.t2 = m.has_nu_pi ? (rng.Bernoulli(0.15) && m.has_t1 ? m.t1 : breakpoint()) : 0.0;
  m.d_nu_pi = m.has_nu_pi ? m.upper + rng.Uniform(0.0, 1.0) : 0.0;
  return m;
}

FinalDepartureMove RandomFinalDepartureMove(Rng& rng) {
  FinalDepartureMove m;
  m.mu_e = rng.Uniform(0.2, 5.0);
  m.c_e = rng.Uniform(0.0, 10.0);
  m.lower = m.c_e;
  m.has_nu = rng.Bernoulli(0.7);
  if (m.has_nu) {
    m.d_nu = m.lower + (rng.Bernoulli(0.05) ? 1e-13 : rng.Uniform(0.05, 3.0));
    m.upper = m.d_nu;
    switch (rng.UniformInt(3)) {
      case 0:
        m.t_nu = m.lower - rng.Uniform(0.0, 1.0);  // flat window
        break;
      case 1:
        m.t_nu = rng.Bernoulli(0.5) ? m.lower : m.upper;
        break;
      default:
        m.t_nu = rng.Uniform(m.lower, m.upper);
    }
  } else {
    m.upper = kInf;
  }
  return m;
}

TEST(ConditionalTile, SegmentRowsMatchTheTemplateBuilders) {
  // BuildSegmentRows is the fixed-rank form of BuildArrivalSegmentsInto and
  // BuildFinalDepartureSegmentsInto: over tiles of mixed random moves, every live lane
  // must carry the builders' segments bit for bit (alpha only weights the segment pick,
  // so sampling alone would barely see it) and sample like the scalar density they
  // build, and every degenerate lane must get no segments.
  Rng rng(77);
  PiecewiseExpBatch batch;
  ConditionalTile tile;
  PiecewiseExpBatch::SegmentRows rows;
  std::array<std::size_t, 4> seen_counts{};
  std::size_t coinciding_cuts = 0;  // t1 == t2 strictly inside the window
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(ConditionalTile::kLanes);
    std::vector<PiecewiseExpDensity> scalars(n);
    std::vector<bool> live(n);
    for (std::size_t l = 0; l < n; ++l) {
      if (rng.Bernoulli(0.5)) {
        const ArrivalMove m = RandomArrivalMove(rng);
        live[l] = tile.StageArrival(l, m);
        coinciding_cuts += (live[l] && m.has_t1 && m.has_nu_pi && m.t1 == m.t2 &&
                            m.t1 > m.lower && m.t1 < m.upper)
                               ? 1
                               : 0;
        if (live[l]) {
          BuildArrivalSegmentsInto(m, scalars[l]);
        }
      } else {
        const FinalDepartureMove m = RandomFinalDepartureMove(rng);
        live[l] = tile.StageFinalDeparture(l, m);
        if (live[l]) {
          BuildFinalDepartureSegmentsInto(m, scalars[l]);
        }
      }
      if (live[l]) {
        scalars[l].Finalize();
      }
    }
    BuildSegmentRows(tile, n, rows);
    batch.Load(rows, n);
    batch.FinalizeAll();
    for (std::size_t l = 0; l < n; ++l) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " lane " << l);
      if (!live[l]) {
        EXPECT_EQ(batch.NumSegments(l), 0u);
        continue;
      }
      ASSERT_EQ(batch.NumSegments(l), scalars[l].NumSegments());
      ++seen_counts[scalars[l].NumSegments()];
      for (std::size_t k = 0; k < scalars[l].NumSegments(); ++k) {
        const ExpSegment want = scalars[l].Segment(k);
        const std::size_t i = k * PiecewiseExpBatch::kMaxMoves + l;
        ExpectBitEqual(rows.lo[i], want.lo, "lo", k);
        ExpectBitEqual(rows.hi[i], want.hi, "hi", k);
        ExpectBitEqual(rows.alpha[i], want.alpha, "alpha", k);
        ExpectBitEqual(rows.beta[i], want.beta, "beta", k);
      }
    }
    std::array<double, ConditionalTile::kLanes> picks{}, invs{}, out{};
    for (int draw = 0; draw < 6; ++draw) {
      for (std::size_t l = 0; l < n; ++l) {
        if (live[l]) {
          picks[l] = rng.Uniform();
          invs[l] = rng.Uniform();
        }
      }
      batch.SampleAll(std::span<const double>(picks.data(), n),
                      std::span<const double>(invs.data(), n),
                      std::span<double>(out.data(), n));
      for (std::size_t l = 0; l < n; ++l) {
        if (live[l]) {
          SCOPED_TRACE(testing::Message() << "trial " << trial << " draw " << draw);
          ExpectBitEqual(out[l], scalars[l].SampleWith(picks[l], invs[l]), "SampleAll", l);
        }
      }
    }
  }
  EXPECT_GT(seen_counts[1], 100u);
  EXPECT_GT(seen_counts[2], 100u);
  EXPECT_GT(seen_counts[3], 100u);
  EXPECT_GT(coinciding_cuts, 20u);
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
                       std::uint64_t seed) {
  GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates, options);
  Rng rng(seed);
  for (int s = 0; s < sweeps; ++s) {
    sampler.Sweep(rng);
  }
  return sampler.State();
}

// The same sweeps through the move-at-a-time reference kernel on the same schedule.
EventLog ReferenceSweeps(const Fixture& fixture, const GibbsOptions& options, int sweeps,
                         std::uint64_t seed) {
  qnet_testing::ReferenceSweeper reference(fixture.init, fixture.obs, fixture.rates, options);
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

TEST(BatchedKernel, TinyBucketsMatchReference) {
  // A small trace has color classes far narrower than the batch width, down to one-move
  // buckets; every tile is then a tail tile.
  const Fixture fixture = MakeFixture(8, 0.3, 41);
  const GibbsOptions options;
  const EventLog a = SamplerSweeps(fixture, options, 30, 5);
  const EventLog b = ReferenceSweeps(fixture, options, 30, 5);
  ExpectStatesBitEqual(a, b, "tiny buckets");
}

TEST(BatchedKernel, DegenerateWindowReturnsMidpoint) {
  // One task through a two-queue tandem whose second arrival a_e may only move inside a
  // window narrower than kDegenerateWindow: [c_pi, d_e] = [2, 2 + 4e-13]. Both kernels
  // resample it as the window's midpoint, which differs from the current a_e, instead of
  // drawing from a density.
  EventLog log(3);
  log.AddTask(2.0);
  log.AddVisit(0, 0, 1, 2.0, 2.0 + 1e-13);
  const EventId e = log.AddVisit(0, 1, 2, 2.0 + 1e-13, 2.0 + 4e-13);
  log.BuildQueueLinks();
  const std::vector<double> rates = {1.0, 2.0, 3.0};
  const ArrivalMove gathered = GatherArrivalMove(log, e, rates);
  ASSERT_EQ(gathered.lower, 2.0);
  ASSERT_EQ(gathered.upper, 2.0 + 4e-13);
  const double midpoint = 0.5 * (gathered.lower + gathered.upper);
  ASSERT_NE(log.Arrival(e), midpoint);

  const SweepMove move{MoveKind::kArrival, e};
  const MoveGeometry geometry = log.ResolveMoveGeometry(move);
  const BatchedExponentialMoveKernel kernel(rates);
  EventLog batched = log;
  PiecewiseExpBatch batch;
  kernel.RunBucket(batched, {&move, 1}, {&geometry, 1}, /*bucket_seed=*/7, batch);
  EventLog reference = log;
  kernel.RunBucketReference(reference, {&move, 1}, /*bucket_seed=*/7);
  for (const EventLog* state : {&batched, &reference}) {
    EXPECT_EQ(state->Arrival(e), midpoint);
    EXPECT_EQ(state->Departure(state->At(e).pi), midpoint);
  }
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
    SCOPED_TRACE(testing::Message() << "width " << width);
    GibbsOptions options;
    options.batch_width = width;
    const EventLog a = SamplerSweeps(fixture, options, 20, 4321);
    const EventLog b = ReferenceSweeps(fixture, options, 20, 4321);
    ExpectStatesBitEqual(a, b, "geometry vs link walk");
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
