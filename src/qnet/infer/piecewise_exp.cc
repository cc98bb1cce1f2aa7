#include "qnet/infer/piecewise_exp.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "qnet/support/check.h"
#include "qnet/support/logspace.h"
#include "qnet/support/vmath.h"

namespace qnet {
namespace {

// Below this |beta| * width the segment's mass is computed as if uniform. The threshold
// balances the flat approximation's relative error (~|u|/2) against the cancellation in
// the two-exp mass formula (~1e-16/|u|); both are ~1e-8 at the crossover. Sampling keeps
// its own tighter 1e-12 branch point in SampleExpLinear — mass and inverse-CDF thresholds
// are independent (mass only weights the segment pick).
constexpr double kFlatThreshold = 1.5e-8;

}  // namespace

void PiecewiseExpDensity::AddSegment(double lo, double hi, double alpha, double beta) {
  QNET_CHECK(!finalized_, "AddSegment after Finalize");
  QNET_CHECK(lo <= hi, "segment bounds reversed: lo=", lo, " hi=", hi);
  if (!(lo < hi)) {
    return;  // Zero width carries zero mass.
  }
  if (hi == kPosInf) {
    QNET_CHECK(beta < 0.0, "unbounded segment requires beta < 0");
  }
  if (num_segments_ > 0) {
    QNET_CHECK(segments_[num_segments_ - 1].hi <= lo + 1e-12,
               "segments must be ordered and disjoint");
  }
  QNET_CHECK(num_segments_ < kMaxSegments, "more than ", kMaxSegments,
             " segments; the Gibbs conditionals never need this");
  segments_[num_segments_++] = ExpSegment{lo, hi, alpha, beta, kNegInf};
}

void PiecewiseExpDensity::Finalize() {
  QNET_CHECK(!finalized_, "Finalize called twice");
  QNET_CHECK(num_segments_ > 0, "density has no support");

  // The log density is linear on each segment, so its maximum over the support is attained
  // at a segment endpoint (for the unbounded tail, at lo since beta < 0 there).
  double peak = kNegInf;
  std::array<double, kMaxSegments> peak_value;  // per-segment max of alpha + beta * x
  for (std::size_t i = 0; i < num_segments_; ++i) {
    const ExpSegment& seg = segments_[i];
    const double at_lo = seg.alpha + seg.beta * seg.lo;
    const double value =
        (seg.beta > 0.0 && seg.hi != kPosInf) ? seg.alpha + seg.beta * seg.hi : at_lo;
    peak_value[i] = value;
    peak = std::max(peak, value);
  }
  QNET_CHECK(peak > kNegInf && peak < kPosInf, "density peak is not finite");
  peak_log_value_ = peak;

  // Segment masses relative to the peak:  mass_i = (exp(gap) - exp(gap - |u|)) / |beta|
  // with gap = peak_i - peak <= 0 and u = beta * width — the integral of the shifted
  // exponential, anchored at the segment's peak end so neither exp can overflow. Two exps
  // instead of the exp * expm1 product: cheaper, and the unbounded tail folds in for free
  // because |u| == inf makes the second exp exactly zero. The subtraction cancels for
  // near-flat segments, costing relative mass accuracy ~1e-16/|u|, capped at ~1e-8 where
  // the flat arm takes over (see kFlatThreshold). The transcendentals run on vmath so
  // this scalar path and PiecewiseExpBatch::FinalizeAll compute bit-identical masses.
  double total = 0.0;
  for (std::size_t i = 0; i < num_segments_; ++i) {
    const ExpSegment& seg = segments_[i];
    const double gap = peak_value[i] - peak;
    const double scale = vmath::Exp(gap);  // in (0, 1]
    const double width = seg.hi - seg.lo;  // +inf on the unbounded tail
    const double u = seg.beta * width;     // -inf there (beta < 0)
    double mass;
    if (std::abs(u) < kFlatThreshold) {
      mass = scale * width;
    } else {
      mass = (scale - vmath::Exp(gap - std::abs(u))) / std::abs(seg.beta);
    }
    mass_[i] = mass;
    total += mass;
  }
  total_mass_ = total;
  QNET_CHECK(total > 0.0, "density has zero total mass");
  QNET_CHECK(std::isfinite(total), "density mass is not finite");
  // The log normalizer (peak + log(total)) is derived on demand in LogNormalizer():
  // sampling needs only the linear masses, so the hot path skips the log entirely.
  finalized_ = true;
}

double PiecewiseExpDensity::LogNormalizer() const {
  QNET_CHECK(finalized_, "Finalize first");
  return peak_log_value_ + std::log(total_mass_);
}

double PiecewiseExpDensity::Sample(Rng& rng) const {
  // Explicit draw order (pick first, inverse-CDF second) — the two-uniform protocol every
  // sampling path shares, batched or not.
  const double u_pick = rng.Uniform();
  const double u_inv = rng.Uniform();
  return SampleWith(u_pick, u_inv);
}

double PiecewiseExpDensity::SampleWith(double u_pick, double u_inv) const {
  QNET_CHECK(finalized_, "Finalize first");
  // Pick a segment proportionally to its mass (plain arithmetic on the linear masses),
  // then inverse-CDF within the segment.
  double u = u_pick * total_mass_;
  std::size_t pick = num_segments_ - 1;
  for (std::size_t i = 0; i + 1 < num_segments_; ++i) {
    u -= mass_[i];
    if (u < 0.0) {
      pick = i;
      break;
    }
  }
  const ExpSegment& seg = segments_[pick];
  return SampleExpLinear(seg.beta, seg.lo, seg.hi, u_inv);
}

double PiecewiseExpDensity::LogPdf(double x) const {
  QNET_CHECK(finalized_, "Finalize first");
  for (std::size_t i = 0; i < num_segments_; ++i) {
    const ExpSegment& seg = segments_[i];
    if (x >= seg.lo && x <= seg.hi) {
      return seg.alpha + seg.beta * x - LogNormalizer();
    }
  }
  return kNegInf;
}

double PiecewiseExpDensity::Cdf(double x) const {
  QNET_CHECK(finalized_, "Finalize first");
  if (x <= SupportLo()) {
    return 0.0;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < num_segments_; ++i) {
    const ExpSegment& seg = segments_[i];
    if (x >= seg.hi) {
      total += mass_[i] / total_mass_;
    } else if (x > seg.lo) {
      total += std::exp(LogIntegralExpLinear(seg.alpha, seg.beta, seg.lo, x) - LogNormalizer());
      break;
    } else {
      break;
    }
  }
  return std::min(total, 1.0);
}

double PiecewiseExpDensity::Mean() const {
  QNET_CHECK(finalized_, "Finalize first");
  double mean = 0.0;
  for (std::size_t i = 0; i < num_segments_; ++i) {
    const ExpSegment& seg = segments_[i];
    const double weight = mass_[i] / total_mass_;
    if (weight <= 0.0) {
      continue;
    }
    double segment_mean = 0.0;
    if (seg.hi == kPosInf) {
      segment_mean = seg.lo + 1.0 / (-seg.beta);
    } else if (std::abs(seg.beta * (seg.hi - seg.lo)) < kFlatThreshold) {
      segment_mean = 0.5 * (seg.lo + seg.hi);
    } else {
      // Conditional mean of density ∝ exp(beta x) on [lo, hi]; this is the truncated
      // exponential with rate -beta:  E[X] = lo + 1/beta * (u e^u / (e^u - 1) - 1) with
      // u = beta * width, written via expm1 for stability.
      const double width = seg.hi - seg.lo;
      const double u = seg.beta * width;
      const double em = std::expm1(u);
      segment_mean = seg.lo + (width * (em + 1.0) / em - 1.0 / seg.beta);
    }
    mean += weight * segment_mean;
  }
  return mean;
}

ExpSegment PiecewiseExpDensity::Segment(std::size_t i) const {
  QNET_CHECK(i < num_segments_, "segment index out of range: ", i);
  ExpSegment seg = segments_[i];
  if (finalized_) {
    seg.log_mass = mass_[i] > 0.0 ? peak_log_value_ + std::log(mass_[i]) : kNegInf;
  }
  return seg;
}

double PiecewiseExpDensity::SupportLo() const {
  QNET_CHECK(num_segments_ > 0, "density has no support");
  return segments_[0].lo;
}

double PiecewiseExpDensity::SupportHi() const {
  QNET_CHECK(num_segments_ > 0, "density has no support");
  return segments_[num_segments_ - 1].hi;
}

void PiecewiseExpBatch::Load(const SegmentRows& rows, std::size_t num_moves) {
  QNET_CHECK(num_moves <= kMaxMoves, "batch holds at most ", kMaxMoves, " moves");
  std::uint32_t max_count = 0;
  for (std::size_t m = 0; m < num_moves; ++m) {
    counts_[m] = rows.counts[m];
    max_count = std::max(max_count, rows.counts[m]);
  }
  // Always-on: FinalizeAll's passes index ranks up to max_count_.
  QNET_CHECK(max_count <= kStride, "more than ", kStride,
             " segments; the Gibbs conditionals never need this");
  num_moves_ = num_moves;
  max_count_ = max_count;
  finalized_ = false;
  // Rank 0 is written even in an all-empty batch, so FinalizeAll (which always runs rank
  // 0) reads neutralized slots. The derived quantities use the same expressions as the
  // scalar Finalize and SampleExpLinear, for bit-identical downstream branches: the peak
  // value sits at hi only for a rising bounded segment (on the unbounded tail beta < 0,
  // and at_hi's -inf is computed and discarded), width is +inf and u == -inf on that
  // tail. Ranks above a move's count get the neutral -inf / 0 / 0 / 0.
  const std::size_t ks = std::max<std::size_t>(max_count, 1);
  for (std::size_t k = 0; k < ks; ++k) {
    const std::size_t base = k * kMaxMoves;
    for (std::size_t m = 0; m < num_moves; ++m) {
      const std::size_t i = base + m;
      const double lo = rows.lo[i];
      const double hi = rows.hi[i];
      const double alpha = rows.alpha[i];
      const double beta = rows.beta[i];
      const double width = hi - lo;
      const double at_lo = alpha + beta * lo;
      const double at_hi = alpha + beta * hi;
      const bool live = k < rows.counts[m];
      lo_[i] = lo;
      hi_[i] = hi;
      beta_[i] = beta;
      value_[i] = live ? ((beta > 0.0 && hi != kPosInf) ? at_hi : at_lo) : kNegInf;
      width_[i] = live ? width : 0.0;
      u_[i] = live ? beta * width : 0.0;
      abs_beta_[i] = live ? std::abs(beta) : 0.0;
    }
  }
}

void PiecewiseExpBatch::FinalizeAll() {
  QNET_CHECK(!finalized_, "FinalizeAll called twice");
  const std::size_t nm = num_moves_;

  // Load already derived everything per segment (value, width, u, |beta|), so this
  // starts at the per-move peak fold. Every rectangular pass stops at the batch's
  // highest live rank rather than kStride: a rank that is dead in every move would only
  // contribute exact zeros (masses) and -inf (peak candidates), so skipping it cannot
  // change a bit — and most conditionals have one or two segments, making rank 2 usually
  // all-dead. Rank 0 is processed even in an all-empty batch (ks >= 1): Load dropped
  // its values to -inf, so it computes defined zeros rather than reading stale slots
  // downstream.
  const std::size_t ks = std::max<std::size_t>(max_count_, 1);

  // Per-move peak as an elementwise max fold across live ranks (max is exact, so any
  // association matches the scalar loop bit for bit; a dead rank's -inf — set by Load —
  // never wins). Empty moves anchor at 0 so their gaps stay -inf (mass 0)
  // instead of producing -inf - -inf = NaN. Validity accumulates as an OR-reduction (a
  // bool && chain would serialize the loop).
  std::array<double, kMaxMoves> anchor;
  for (std::size_t m = 0; m < nm; ++m) {
    anchor[m] = value_[m];
  }
  for (std::size_t k = 1; k < ks; ++k) {
    const std::size_t base = k * kMaxMoves;
    for (std::size_t m = 0; m < nm; ++m) {
      anchor[m] = std::max(anchor[m], value_[base + m]);
    }
  }
  std::uint32_t bad_peaks = 0;
  for (std::size_t m = 0; m < nm; ++m) {
    const double peak = anchor[m];
    const bool empty = counts_[m] == 0;
    const bool finite = bool(peak > kNegInf) & bool(peak < kPosInf);
    bad_peaks |= (!empty & !finite) ? 1u : 0u;
    anchor[m] = empty ? 0.0 : peak;
  }
  QNET_CHECK(bad_peaks == 0, "a density peak in the batch is not finite");

  // Fused mass pass over the live (move, segment-rank) slots: peak gap, both exps of the
  // two-exp mass formula — evaluated inline (vmath::Exp is an inline polynomial kernel,
  // so the whole loop still vectorizes; no gap/exp arrays are materialized) — and the
  // mass select. Every case of the scalar Finalize collapses into one select:
  //  * flat (|u| < threshold):  mass = exp(gap) * width — the explicit arm (the dead
  //    slope arm divides by |beta| == 0 there; the NaN is computed and discarded);
  //  * bounded non-flat:        mass = (exp(gap) - exp(gap - |u|)) / |beta|;
  //  * unbounded tail (u == -inf, not flat because |u| == inf): exp(gap - inf) == 0
  //    exactly, so mass = exp(gap) / |beta| — the same bits as the scalar arm;
  //  * unused rank: value -inf makes gap -inf and both exps exactly 0, and Load's zero
  //    u selects the flat arm, whose 0 * width (width 0) is an exact zero mass.
  for (std::size_t k = 0; k < ks; ++k) {
    const std::size_t base = k * kMaxMoves;
    for (std::size_t m = 0; m < nm; ++m) {
      const double gap = value_[base + m] - anchor[m];
      const double au = std::abs(u_[base + m]);
      const double e1 = vmath::Exp(gap);
      const double e2 = vmath::Exp(gap - au);
      const double flat_mass = e1 * width_[base + m];
      const double slope_mass = (e1 - e2) / abs_beta_[base + m];
      mass_[base + m] = au < kFlatThreshold ? flat_mass : slope_mass;
    }
  }

  // The left-fold total matches the scalar Finalize's running sum (trailing exact zeros
  // from dead ranks cannot change a nonnegative double, so stopping at ks is exact too).
  for (std::size_t m = 0; m < nm; ++m) {
    total_mass_[m] = mass_[m];
  }
  for (std::size_t k = 1; k < ks; ++k) {
    const std::size_t base = k * kMaxMoves;
    for (std::size_t m = 0; m < nm; ++m) {
      total_mass_[m] += mass_[base + m];
    }
  }
  std::uint32_t bad_totals = 0;
  for (std::size_t m = 0; m < nm; ++m) {
    const double total = total_mass_[m];
    const bool ok = bool(counts_[m] == 0) | (bool(total > 0.0) & bool(total < kPosInf));
    bad_totals |= ok ? 0u : 1u;
  }
  QNET_CHECK(bad_totals == 0, "a density in the batch has zero or non-finite total mass");
  finalized_ = true;
}

void PiecewiseExpBatch::SampleAll(std::span<const double> u_pick,
                                  std::span<const double> u_inv,
                                  std::span<double> out) const {
  QNET_DCHECK(finalized_, "FinalizeAll first");
  QNET_DCHECK(u_pick.size() >= num_moves_ && u_inv.size() >= num_moves_ &&
                  out.size() >= num_moves_,
              "uniform/output rows shorter than the batch");
  // Pass 1 (branchless): the segment pick as the same *sequential* subtractions
  // SampleWith performs — t1 = u - mass0, t2 = t1 - mass1, pick = first negative — so
  // borderline rounding agrees bit for bit, clamped to the move's last live rank (the
  // scalar loop's count - 1 default; quantile u < total can survive all subtractions).
  // The picked segment's parameters are then rank-selects across the three contiguous
  // rows (no gathers). Only a live lane with a large positive exponent (u >= 30: 2,000 of
  // 105M lanes in a 10 s seed-1 perfbench monitor-k1 run) is flagged for the scalar
  // patch-up; its staged value flows through the vector formulas as garbage (possibly
  // inf/NaN, never a trap) and is overwritten there.
  static_assert(kStride == 3, "the rank selects below assume stride 3");
  const std::size_t nm = num_moves_;
  std::array<double, kMaxMoves> su;      // exponent u of the picked segment
  std::array<double, kMaxMoves> slo;     // picked segment's lo
  std::array<double, kMaxMoves> shi;     // picked segment's hi
  std::array<double, kMaxMoves> sbeta;   // picked segment's beta
  std::array<double, kMaxMoves> swidth;  // picked segment's width
  std::uint32_t any_big = 0;
  for (std::size_t m = 0; m < nm; ++m) {
    const std::uint32_t count = counts_[m];
    const double t1 = u_pick[m] * total_mass_[m] - mass_[m];
    const double t2 = t1 - mass_[kMaxMoves + m];
    const std::size_t ordinal = t1 < 0.0 ? 0u : (t2 < 0.0 ? 1u : 2u);
    const std::size_t last = count == 0 ? 0u : count - 1;
    const std::size_t pick = ordinal < last ? ordinal : last;
    const double uu = pick == 0 ? u_[m] : pick == 1 ? u_[kMaxMoves + m] : u_[2 * kMaxMoves + m];
    su[m] = uu;
    slo[m] = pick == 0 ? lo_[m] : pick == 1 ? lo_[kMaxMoves + m] : lo_[2 * kMaxMoves + m];
    shi[m] = pick == 0 ? hi_[m] : pick == 1 ? hi_[kMaxMoves + m] : hi_[2 * kMaxMoves + m];
    sbeta[m] =
        pick == 0 ? beta_[m] : pick == 1 ? beta_[kMaxMoves + m] : beta_[2 * kMaxMoves + m];
    swidth[m] = pick == 0 ? width_[m]
                : pick == 1 ? width_[kMaxMoves + m]
                            : width_[2 * kMaxMoves + m];
    any_big |= (bool(uu >= 30.0) & bool(count != 0)) ? 1u : 0u;
  }
  // Pass 2: the tile's inverse-CDF, both common arms of SampleExpLinear as whole-tile
  // vector loops (vmath::Exp / vmath::Log are the same inline kernels SampleExpLinear
  // runs, so lane values match it bit for bit):
  //  * curved: x = lo + log((1-v) + v*exp(u)) / beta. The semi-infinite tail needs no
  //    arm of its own because exp(-inf) == 0 bitwise. The store is unconditional into a
  //    staging row: a select or a blend into out[m] in this loop defeats gcc's
  //    if-conversion of the Log kernel's selects, dropping the whole loop to scalar.
  //  * flat (|u| < 1e-12): x = lo + v*width, computed in the merge loop and picked by a
  //    lane select. It is not rare: the beta == 0 segments that final-departure and
  //    arrival conditionals emit make it 38% of the live lanes in that run (39.9M of
  //    105.0M), in 96% of its tiles. The curved arm divides by that zero beta; its NaN
  //    is computed and discarded by the select.
  // The merge is a masked select too: an empty slot (a degenerate-window move, whose
  // midpoint the kernel wrote itself) keeps its value.
  std::array<double, kMaxMoves> sres;
  for (std::size_t m = 0; m < nm; ++m) {
    const double v = u_inv[m];
    const double e = vmath::Exp(su[m]);
    const double arg = (1.0 - v) + v * e;
    sres[m] = slo[m] + vmath::Log(arg) / sbeta[m];
  }
  for (std::size_t m = 0; m < nm; ++m) {
    const double flat = slo[m] + u_inv[m] * swidth[m];
    const double x = std::abs(su[m]) < 1e-12 ? flat : sres[m];
    out[m] = counts_[m] != 0 ? x : out[m];
  }
  if (any_big == 0) {
    return;  // No lane needs the overflow-safe arm — typical.
  }
  // Scalar patch-up for the large-exponent lanes, on the staged parameters and the same
  // vmath kernels as SampleExpLinear's anchored-at-hi arm.
  for (std::size_t m = 0; m < nm; ++m) {
    const double uu = su[m];
    if (uu >= 30.0 && counts_[m] != 0) {
      const double v = u_inv[m];
      out[m] = shi[m] + vmath::Log(v + (1.0 - v) * vmath::Exp(-uu)) / sbeta[m];
    }
  }
}

}  // namespace qnet
