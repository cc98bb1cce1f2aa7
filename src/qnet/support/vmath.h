// Deterministic polynomial transcendentals (exp, log, expm1, log1p), usable one value at
// a time or over a batch.
//
// Why not libm: the Gibbs hot path spends most of its cycles in exp/expm1/log1p calls made
// one scalar at a time, and libm implementations are out-of-line, branchy, and (worse for
// the batched kernel) opaque — there is no guarantee that evaluating the same inputs
// element-wise in a loop produces code the vectorizer can touch. The kernels here are
// written so that the *N-element batch form is literally a loop over the scalar inline
// form*: every lane performs the identical operation sequence, so scalar and batched
// evaluation are bit-identical by construction — the same discipline that keeps the
// batched kernel bit-identical to its move-at-a-time reference. The build pins
// -ffp-contract=off globally so no TU can fuse a*b+c into an FMA and break that contract
// between a vectorized library TU and a scalar test TU.
//
// Accuracy: a few ulp (argument reduction is Cody–Waite, polynomials are Taylor with one
// guard term past the target precision; see the per-function notes). That is far below
// the statistical noise of any sampler that consumes these values, and the piecewise-
// exponential conditionals tolerate it by design — but it is NOT libm-bit-compatible:
// switching a call site from std::exp to vmath::Exp changes results by ulps, which is why
// the whole sampling path (Finalize + SampleExpLinear) switched in one PR.
//
// Range semantics (documented contract, pinned by tests/test_move_batch.cc):
//  * Exp(x) returns exactly 1.0 at x == 0, +inf above ~709.78, and flushes to exactly 0.0
//    below ~-708.40 (the smallest normal) — matching the piecewise-exp normalizer's
//    historical "masses ~700 nats below the peak underflow to zero weight" behavior, with
//    no denormal tail.
//  * Log(0) = -inf, Log(x<0) = NaN, Log(+inf) = +inf; subnormal inputs are rescaled.
//  * Expm1/Log1p are exact at 0 and defer to Exp/Log outside the cancellation-critical
//    window, so their accuracy degrades gracefully (never catastrophically) at the seam.
//  * NaN propagates through all four.

#ifndef QNET_SUPPORT_VMATH_H_
#define QNET_SUPPORT_VMATH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace qnet::vmath {

inline constexpr double kVmathNegInf = -std::numeric_limits<double>::infinity();
inline constexpr double kVmathPosInf = std::numeric_limits<double>::infinity();

namespace detail {

// 2^52 + 2^51: adding it to |v| < 2^51 rounds v to the nearest integer (ties to even) and
// leaves that integer in the low mantissa bits — branchless round + truncate in one add.
inline constexpr double kShifter = 6755399441055744.0;
inline constexpr double kLog2E = 1.4426950408889634074;
// ln 2 split so that n * kLn2Hi is exact for |n| <= 2^20 (the high part has zero trailing
// mantissa bits past position 32).
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kLn2 = 6.93147180559945309417e-01;
inline constexpr double kSqrt2 = 1.41421356237309514547;
// exp overflows above this (result would exceed DBL_MAX)...
inline constexpr double kExpOverflow = 709.782712893384;
// ...and flushes to zero below this (result would be subnormal).
inline constexpr double kExpUnderflow = -708.3964185322641;

// exp(j * ln2 / 128) for j = 0..127, correctly rounded. The table turns exp's argument
// reduction into |r| <= ln2/256 ~ 0.0027, where a degree-5 Taylor already has truncation
// error ~5e-19 — a 4-deep dependency chain instead of the 13-deep one a table-free
// reduction to |r| <= ln2/2 needs. 1 KiB, L1-resident on the hot path; the batch form
// turns the lookups into a vector gather.
inline constexpr double kExpTable[128] = {
    0x1.0000000000000p+0, 0x1.0163da9fb3335p+0, 0x1.02c9a3e778061p+0, 0x1.04315e86e7f85p+0,
    0x1.059b0d3158574p+0, 0x1.0706b29ddf6dep+0, 0x1.0874518759bc8p+0, 0x1.09e3ecac6f383p+0,
    0x1.0b5586cf9890fp+0, 0x1.0cc922b7247f7p+0, 0x1.0e3ec32d3d1a2p+0, 0x1.0fb66affed31bp+0,
    0x1.11301d0125b51p+0, 0x1.12abdc06c31ccp+0, 0x1.1429aaea92de0p+0, 0x1.15a98c8a58e51p+0,
    0x1.172b83c7d517bp+0, 0x1.18af9388c8deap+0, 0x1.1a35beb6fcb75p+0, 0x1.1bbe084045cd4p+0,
    0x1.1d4873168b9aap+0, 0x1.1ed5022fcd91dp+0, 0x1.2063b88628cd6p+0, 0x1.21f49917ddc96p+0,
    0x1.2387a6e756238p+0, 0x1.251ce4fb2a63fp+0, 0x1.26b4565e27cddp+0, 0x1.284dfe1f56381p+0,
    0x1.29e9df51fdee1p+0, 0x1.2b87fd0dad990p+0, 0x1.2d285a6e4030bp+0, 0x1.2ecafa93e2f56p+0,
    0x1.306fe0a31b715p+0, 0x1.32170fc4cd831p+0, 0x1.33c08b26416ffp+0, 0x1.356c55f929ff1p+0,
    0x1.371a7373aa9cbp+0, 0x1.38cae6d05d865p+0, 0x1.3a7db34e59ff7p+0, 0x1.3c32dc313a8e4p+0,
    0x1.3dea64c123422p+0, 0x1.3fa4504ac801cp+0, 0x1.4160a21f72e2ap+0, 0x1.431f5d950a897p+0,
    0x1.44e086061892dp+0, 0x1.46a41ed1d0057p+0, 0x1.486a2b5c13cd0p+0, 0x1.4a32af0d7d3dfp+0,
    0x1.4bfdad5362a27p+0, 0x1.4dcb299fddd0dp+0, 0x1.4f9b2769d2ca7p+0, 0x1.516daa2cf6642p+0,
    0x1.5342b569d4f82p+0, 0x1.551a4ca5d920fp+0, 0x1.56f4736b527dap+0, 0x1.58d12d497c7fdp+0,
    0x1.5ab07dd485429p+0, 0x1.5c9268a5946b7p+0, 0x1.5e76f15ad2149p+0, 0x1.605e1b976dc09p+0,
    0x1.6247eb03a5585p+0, 0x1.6434634ccc320p+0, 0x1.6623882552225p+0, 0x1.68155d44ca973p+0,
    0x1.6a09e667f3bccp+0, 0x1.6c012750bdabfp+0, 0x1.6dfb23c651a2fp+0, 0x1.6ff7df9519484p+0,
    0x1.71f75e8ec5f74p+0, 0x1.73f9a48a58174p+0, 0x1.75feb564267c9p+0, 0x1.780694fde5d3fp+0,
    0x1.7a11473eb0187p+0, 0x1.7c1ed0130c133p+0, 0x1.7e2f336cf4e62p+0, 0x1.80427543e1a12p+0,
    0x1.82589994cce13p+0, 0x1.8471a4623c7adp+0, 0x1.868d99b4492ecp+0, 0x1.88ac7d98a6699p+0,
    0x1.8ace5422aa0dbp+0, 0x1.8cf3216b5448cp+0, 0x1.8f1ae99157736p+0, 0x1.9145b0b91ffc5p+0,
    0x1.93737b0cdc5e5p+0, 0x1.95a44cbc8520fp+0, 0x1.97d829fde4e4fp+0, 0x1.9a0f170ca07bap+0,
    0x1.9c49182a3f090p+0, 0x1.9e86319e32323p+0, 0x1.a0c667b5de565p+0, 0x1.a309bec4a2d33p+0,
    0x1.a5503b23e255dp+0, 0x1.a799e1330b359p+0, 0x1.a9e6b5579fdc0p+0, 0x1.ac36bbfd3f379p+0,
    0x1.ae89f995ad3adp+0, 0x1.b0e07298db665p+0, 0x1.b33a2b84f15fbp+0, 0x1.b59728de5593ap+0,
    0x1.b7f76f2fb5e47p+0, 0x1.ba5b030a1064ap+0, 0x1.bcc1e904bc1d2p+0, 0x1.bf2c25bd71e08p+0,
    0x1.c199bdd85529cp+0, 0x1.c40ab5fffd07ap+0, 0x1.c67f12e57d14bp+0, 0x1.c8f6d9406e7b5p+0,
    0x1.cb720dcef9069p+0, 0x1.cdf0b555dc3fap+0, 0x1.d072d4a07897bp+0, 0x1.d2f87080d89f1p+0,
    0x1.d5818dcfba487p+0, 0x1.d80e316c98398p+0, 0x1.da9e603db3285p+0, 0x1.dd321f301b460p+0,
    0x1.dfc97337b9b5fp+0, 0x1.e264614f5a128p+0, 0x1.e502ee78b3ff6p+0, 0x1.e7a51fbc74c83p+0,
    0x1.ea4afa2a490d9p+0, 0x1.ecf482d8e67f0p+0, 0x1.efa1bee615a27p+0, 0x1.f252b376bba97p+0,
    0x1.f50765b6e4541p+0, 0x1.f7bfdad9cbe13p+0, 0x1.fa7c1819e90d8p+0, 0x1.fd3c22b8f71f1p+0,
};

// P(z) with log((1+s)/(1-s)) = s * (2 + z * P(z)), z = s^2. Shared by Log (mantissa in
// [sqrt2/2, sqrt2] gives z <= 0.030) and Log1p (|x| < 0.25 gives z <= 0.013); ten terms
// put the truncation below 3e-17 relative on both ranges.
inline double LogPoly(double z) {
  return z * (2.0 / 3 +
              z * (2.0 / 5 +
                   z * (2.0 / 7 +
                        z * (2.0 / 9 +
                             z * (2.0 / 11 +
                                  z * (2.0 / 13 +
                                       z * (2.0 / 15 +
                                            z * (2.0 / 17 + z * (2.0 / 19 + z * (2.0 / 21))))))))));
}

}  // namespace detail

// exp(x). Branchless core: shift-trick reduction against a 128-entry table, so
// exp(x) = T[n mod 128] * 2^(n div 128) * poly(r) with |r| <= ln2/256 and a degree-5
// polynomial. The 2^m scale is added straight into T[j]'s exponent field — exact, and
// never denormal/overflowed for in-range x because T[j] in [1, 2) keeps the biased
// exponent inside (0, 2047) out to both range limits. The out-of-range selects at the end
// also repair the garbage the core produces for |x| beyond the double range.
inline double Exp(double x) {
  const double fn_shifted = x * (128.0 * detail::kLog2E) + detail::kShifter;
  // Low mantissa bits of the shifted sum are round-to-nearest(x * 128 / ln 2) in two's
  // complement; valid whenever that is < 2^31, which covers every non-overflowing input
  // (the selects below own the rest).
  const auto n = static_cast<std::int32_t>(std::bit_cast<std::uint64_t>(fn_shifted));
  const double fn = fn_shifted - detail::kShifter;
  // Cody–Waite with ln2/128 split hi/lo (the /128 is an exact exponent shift, and
  // |fn| < 2^18 keeps fn * hi exact).
  const double r = (x - fn * (detail::kLn2Hi * 0x1p-7)) - fn * (detail::kLn2Lo * 0x1p-7);
  const double r2 = r * r;
  // 1/k! for k = 0..5; truncation ~5e-19 relative on |r| <= ln2/256.
  const double p =
      1.0 + r + r2 * (1.0 / 2 + r * (1.0 / 6 + r * (1.0 / 24 + r * (1.0 / 120))));
  const std::int64_t j = n & 127;
  const std::int64_t m = n >> 7;
  const double scale = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(detail::kExpTable[j]) + (static_cast<std::uint64_t>(m) << 52));
  double result = scale * p;
  result = x < detail::kExpUnderflow ? 0.0 : result;   // also catches -inf
  result = x > detail::kExpOverflow ? kVmathPosInf : result;  // also catches +inf
  return result;  // NaN falls through both selects as NaN (r, hence p, is NaN)
}

// log(x): exponent/mantissa split, atanh-form polynomial on [sqrt2/2, sqrt2]. The
// out-of-domain fixups are integer-domain bit blends rather than FP selects: gcc sinks a
// `cond ? constant : expensive_core` select into control flow (skipping the core), which
// its loop if-conversion then refuses to undo — killing vectorization of LogN and Log1pN.
// Masked bit arithmetic never becomes a branch, so the whole body stays straight-line.
inline double Log(double x) {
  // One select rescales subnormals into the normal range (production callers never pass
  // them, but the bit split below would silently misread the exponent).
  const bool tiny = x < std::numeric_limits<double>::min();
  const double xs = tiny ? x * 0x1p54 : x;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(xs);
  std::int64_t e = static_cast<std::int64_t>(bits >> 52) - 1023 + (tiny ? -54 : 0);
  double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFull) | 0x3FF0000000000000ull);
  const bool fold = m > detail::kSqrt2;
  m = fold ? m * 0.5 : m;
  e += fold ? 1 : 0;
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  const double log_m = s * (2.0 + detail::LogPoly(z));
  const double k = static_cast<double>(e);
  const double core = k * detail::kLn2Hi + (log_m + k * detail::kLn2Lo);
  // 0 -> -inf; negatives and NaN -> quiet NaN (the !(x >= 0) mask catches both); +inf
  // passes through.
  const std::uint64_t zero_mask = x == 0.0 ? ~0ull : 0ull;
  const std::uint64_t nan_mask = !(x >= 0.0) ? ~0ull : 0ull;
  const std::uint64_t inf_mask = x == kVmathPosInf ? ~0ull : 0ull;
  std::uint64_t r = std::bit_cast<std::uint64_t>(core);
  r = (r & ~zero_mask) | (std::bit_cast<std::uint64_t>(kVmathNegInf) & zero_mask);
  r = (r & ~nan_mask) |
      (std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()) & nan_mask);
  r = (r & ~inf_mask) | (std::bit_cast<std::uint64_t>(kVmathPosInf) & inf_mask);
  return std::bit_cast<double>(r);
}

// expm1(x): Taylor through x^13/13! on |x| <= 0.35 (truncation ~1e-17 relative), Exp - 1
// outside, where at most ~2 bits cancel. The quotient series q = expm1(x)/x is evaluated
// even/odd in x^2 so the two Horner chains overlap in the pipeline (coefficients are
// 1/(k+1)! for k = 0..12).
inline double Expm1(double x) {
  const double x2 = x * x;
  const double even =
      1.0 +
      x2 * (1.0 / 6 +
            x2 * (1.0 / 120 +
                  x2 * (1.0 / 5040 +
                        x2 * (1.0 / 362880 +
                              x2 * (1.0 / 39916800 + x2 * (1.0 / 6227020800))))));
  const double odd =
      1.0 / 2 +
      x2 * (1.0 / 24 +
            x2 * (1.0 / 720 +
                  x2 * (1.0 / 40320 + x2 * (1.0 / 3628800 + x2 * (1.0 / 479001600)))));
  const double q = even + x * odd;
  const double near = x * q;
  // Non-short-circuit &, and false for NaN so the far arm propagates it.
  const bool use_near = bool(x >= -0.35) & bool(x <= 0.35);
  return use_near ? near : Exp(x) - 1.0;
}

// log1p(x): atanh form on |x| < 0.25; Log(1 + x) outside, where the addition is either
// exact (Sterbenz, x in [-1, -0.5]) or loses well under an ulp of the result. Both arms
// are evaluated and combined with a bit blend for the same reason as Log's fixups: an FP
// select around the expensive Log arm gets sunk into a branch and blocks vectorization.
inline double Log1p(double x) {
  const double s = x / (2.0 + x);
  const double z = s * s;
  const double near = s * (2.0 + detail::LogPoly(z));
  const double far = Log(1.0 + x);  // NaN reaches here (both range compares false) and propagates
  // Non-short-circuit & : the && form introduces a branch that blocks vectorization.
  const bool use_near = bool(x >= -0.25) & bool(x <= 0.25);
  const std::uint64_t near_mask = use_near ? ~0ull : 0ull;
  const std::uint64_t r = (std::bit_cast<std::uint64_t>(near) & near_mask) |
                          (std::bit_cast<std::uint64_t>(far) & ~near_mask);
  return std::bit_cast<double>(r);
}

// Batch forms: literally the scalar kernel mapped over the span (the bit-identity
// contract), written so the compiler may vectorize the loop — every lane is independent
// and the scalar bodies above are branch-free selects.
inline void ExpN(std::span<const double> in, std::span<double> out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = Exp(in[i]);
  }
}

inline void LogN(std::span<const double> in, std::span<double> out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = Log(in[i]);
  }
}

inline void Expm1N(std::span<const double> in, std::span<double> out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = Expm1(in[i]);
  }
}

inline void Log1pN(std::span<const double> in, std::span<double> out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = Log1p(in[i]);
  }
}

}  // namespace qnet::vmath

#endif  // QNET_SUPPORT_VMATH_H_
