// Exact sampler/integrator for piecewise log-linear (piecewise-exponential) densities.
//
// The Gibbs conditionals of the paper (Figure 3) are densities of the form
//     p(x) ∝ exp(alpha_i + beta_i * x)   on segment [lo_i, hi_i),
// with up to three segments for the arrival move and two for the final-departure move.
// This class normalizes such densities in log space (immune to exp overflow even when
// |alpha| is in the tens of thousands), samples by inverse CDF, and exposes LogPdf/Cdf/Mean
// so tests can verify the sampler against numeric integration.
//
// Hot-path design (the Gibbs sampler builds + samples one of these per latent coordinate
// per sweep):
//  * fixed-capacity inline segment storage — the whole object lives on the stack and the
//    build→finalize→sample path performs zero heap allocations;
//  * Finalize computes segment masses in *linear* space relative to the density's peak
//    log value (two exps per segment instead of the log-space Log1mExp/log chain), so
//    Sample picks a segment with plain arithmetic and spends its only transcendentals in
//    the final inverse-CDF;
//  * per-segment log masses (test/diagnostic API) are derived lazily in Segment().
// Masses more than ~700 nats below the peak underflow to exactly zero weight, which is the
// same behavior the previous log-space implementation had at sampling time.

#ifndef QNET_INFER_PIECEWISE_EXP_H_
#define QNET_INFER_PIECEWISE_EXP_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "qnet/support/logspace.h"
#include "qnet/support/rng.h"

namespace qnet {

struct ExpSegment {
  double lo = 0.0;
  double hi = 0.0;
  double alpha = 0.0;  // log-density intercept
  double beta = 0.0;   // log-density slope
  double log_mass = 0.0;
};

class PiecewiseExpDensity {
 public:
  // Arrival conditionals have <= 3 segments and final-departure conditionals <= 2; one
  // extra slot of headroom keeps the capacity check from ever firing on valid geometry.
  static constexpr std::size_t kMaxSegments = 4;

  // Appends a segment; segments must be added left to right and non-overlapping. hi may be
  // +infinity only when beta < 0. Zero-width segments are ignored. CHECK-fails beyond
  // kMaxSegments.
  void AddSegment(double lo, double hi, double alpha, double beta);

  // Computes segment masses and the normalizer. CHECK-fails when the total mass is zero.
  void Finalize();
  bool Finalized() const { return finalized_; }

  // Returns the density to the empty un-finalized state so the instance can be rebuilt
  // in place on the next move.
  void Reset() {
    num_segments_ = 0;
    finalized_ = false;
  }

  double LogNormalizer() const;
  // Draws the two uniforms (segment pick, then inverse CDF) from `rng` and delegates to
  // SampleWith. Every non-degenerate move consumes exactly these two draws.
  double Sample(Rng& rng) const;
  // Deterministic two-uniform sampling core: `u_pick` chooses the segment proportionally
  // to its mass, `u_inv` is the within-segment inverse-CDF quantile. Exposed so the
  // batched kernel (PiecewiseExpBatch) and the scalar path can be fed identical uniforms
  // and compared bit-for-bit.
  double SampleWith(double u_pick, double u_inv) const;
  // Normalized log density (-inf outside the support).
  double LogPdf(double x) const;
  double Cdf(double x) const;
  double Mean() const;

  std::size_t NumSegments() const { return num_segments_; }
  // Diagnostic accessor, returned by value with log_mass derived on demand (it is not
  // needed for sampling, and computing it here keeps the object free of mutable state —
  // safe to share const across threads).
  ExpSegment Segment(std::size_t i) const;
  double SupportLo() const;
  double SupportHi() const;

 private:
  std::array<ExpSegment, kMaxSegments> segments_;
  // Linear-space segment masses, scaled by exp(-peak_log_value_); valid after Finalize.
  std::array<double, kMaxSegments> mass_;
  double total_mass_ = 0.0;
  double peak_log_value_ = 0.0;  // max of the log density over all segment endpoints
  std::size_t num_segments_ = 0;
  bool finalized_ = false;
};

// SoA load/finalize/sample path for one tile of the batched move kernel: up to kMaxMoves
// densities held as per-segment arrays, so every pass runs as rectangular branchless
// loops — the transcendental work (two exps per segment) as contiguous vmath sweeps, the
// peak/mass combining as elementwise loops across moves — instead of ragged per-move
// control flow.
//
// Every array shares one layout: move m's segment rank k lives at [k * kMaxMoves + m],
// so segment rank k of every move forms one contiguous row of kMaxMoves lanes. Load takes
// a whole tile's segments in that layout (SegmentRows, which the kernel's fixed-rank
// build fills: BuildSegmentRows in infer/conditional.h) and derives the per-segment
// quantities FinalizeAll and SampleAll need (endpoint peak value, width, u = beta *
// width, |beta|) in one vector pass.
//
// Ranks a move does not use (k >= its count) self-neutralize: Load gives them a -inf
// peak value and zero width/u/|beta|, so both exps of the mass formula are exactly zero
// and the flat arm's 0 * 0 is a zero mass — a peak candidate that never wins, arithmetic
// that cannot produce a NaN whatever the rows held there.
//
// Contract with the scalar class: for every move slot, FinalizeAll + Sample compute
// arithmetic identical operation-for-operation to PiecewiseExpDensity::Finalize +
// SampleWith (both run on vmath), so given the same segments and the same two uniforms
// the sampled time is bit-identical — pinned by tests/test_move_batch.cc. A move slot may
// be empty (count 0): that is the degenerate-window case, where the kernel writes the
// midpoint and SampleAll leaves the slot untouched.
//
// The object is fixed-capacity (no heap); the kernel keeps one per tile on the stack.
class PiecewiseExpBatch {
 public:
  static constexpr std::size_t kMaxMoves = 32;
  // One slot per segment the builders can actually emit (arrival conditionals cut the
  // window at most twice — 3 segments; final-departure at most once — 2). The scalar
  // class carries one extra headroom slot; here every slot costs a full lane of every
  // finalize pass, so the batch stride is exact and Load's always-on count check is the
  // guard.
  static constexpr std::size_t kStride = 3;
  static_assert(kStride < PiecewiseExpDensity::kMaxSegments,
                "batch stride must cover every valid density minus the headroom slot");
  static constexpr std::size_t kMaxTotalSegments = kMaxMoves * kStride;

  // One tile's segments, rank-major ([k * kMaxMoves + m]): move m uses ranks
  // 0..counts[m]-1, left to right, each with lo < hi, ordered and disjoint, hi == +inf
  // only with beta < 0 (PiecewiseExpDensity::AddSegment's geometry). Entries at unused
  // ranks are ignored.
  struct SegmentRows {
    std::array<double, kMaxTotalSegments> lo;
    std::array<double, kMaxTotalSegments> hi;
    std::array<double, kMaxTotalSegments> alpha;  // log-density intercept
    std::array<double, kMaxTotalSegments> beta;   // log-density slope
    std::array<std::uint32_t, kMaxMoves> counts;
  };

  // Replaces the batch's contents with the first `num_moves` move slots of `rows`.
  void Load(const SegmentRows& rows, std::size_t num_moves);

  // Normalizes every non-empty move slot: two contiguous vmath exp sweeps plus
  // elementwise (vectorizable) peak/gap/mass/total passes.
  void FinalizeAll();

  // Samples every non-empty move slot from its two uniforms, writing out[m]; empty slots
  // (degenerate-window moves) are left untouched for the caller to fill. Bit-identical to
  // calling Sample(m, ...) per slot: the segment pick runs as the same sequential
  // mass subtractions, vectorized with rank-selects, and both common inverse-CDF arms —
  // lo + log((1-v) + v*exp(u)) / beta, which the semi-infinite tail folds into exactly
  // because exp(-inf) == 0, and the flat lo + v*width (38% of live lanes on perfbench's
  // monitor-k1, from beta == 0 segments) — as whole-tile vector loops joined by lane
  // selects. Only a lane with a large positive exponent (u >= 30, ~2 in 100,000 there)
  // falls back to a scalar patch-up on the same vmath kernels.
  void SampleAll(std::span<const double> u_pick, std::span<const double> u_inv,
                 std::span<double> out) const;

  // Samples move slot m from its two uniforms; FinalizeAll first, slot must be non-empty.
  double Sample(std::size_t m, double u_pick, double u_inv) const {
    QNET_DCHECK(finalized_, "FinalizeAll first");
    QNET_DCHECK(m < num_moves_, "move slot out of range: ", m);
    const std::size_t count = counts_[m];
    QNET_DCHECK(count > 0, "sampling an empty move slot");
    double u = u_pick * total_mass_[m];
    std::size_t pick = count - 1;
    for (std::size_t k = 0; k + 1 < count; ++k) {
      u -= mass_[k * kMaxMoves + m];
      if (u < 0.0) {
        pick = k;
        break;
      }
    }
    const std::size_t g = pick * kMaxMoves + m;
    return SampleExpLinear(beta_[g], lo_[g], hi_[g], u_inv);
  }

  std::size_t NumMoves() const { return num_moves_; }
  std::size_t NumSegments(std::size_t m) const {
    QNET_DCHECK(m < num_moves_, "move slot out of range: ", m);
    return counts_[m];
  }

 private:
  // All arrays use the one layout: move m's segment rank k at [k * kMaxMoves + m]. Load
  // writes ranks below the batch's live-rank bound (max_count_), neutralizing a move's
  // unused ranks; the arrays are value-initialized so SampleAll's rank-selects, which
  // read all three rows and keep one, never read an undefined double. The peak gaps and
  // their exps are never materialized: the fused pass evaluates both inline-vmath exps
  // of the two-exp formula in the same vectorized loop that combines them.
  std::array<double, kMaxTotalSegments> lo_{};
  std::array<double, kMaxTotalSegments> hi_{};
  std::array<double, kMaxTotalSegments> beta_{};
  std::array<double, kMaxTotalSegments> value_{};  // peak log value (at_hi or at_lo)
  std::array<double, kMaxTotalSegments> width_{};  // hi - lo (+inf on the unbounded tail)
  std::array<double, kMaxTotalSegments> u_{};      // beta * width, the sampling exponent
  std::array<double, kMaxTotalSegments> abs_beta_{};
  std::array<double, kMaxTotalSegments> mass_{};
  std::array<double, kMaxMoves> total_mass_;
  std::array<std::uint32_t, kMaxMoves> counts_{};
  std::size_t num_moves_ = 0;
  std::uint32_t max_count_ = 0;  // max over counts_[0..num_moves_): live rank bound
  bool finalized_ = false;
};

}  // namespace qnet

#endif  // QNET_INFER_PIECEWISE_EXP_H_
