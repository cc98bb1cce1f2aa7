// Deterministic, fork-able random number generator (xoshiro256++ core, SplitMix64 seeding)
// plus the samplers the library needs. No dependency on <random> engines so that streams are
// reproducible across standard libraries.

#ifndef QNET_SUPPORT_RNG_H_
#define QNET_SUPPORT_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "qnet/support/check.h"

namespace qnet {

// The core generator and the samplers on the DES/Gibbs hot paths (NextU64, Uniform,
// Exponential, Categorical, Bernoulli) are defined inline below the class: every
// simulated event costs a handful of these draws, and keeping them header-visible lets
// the per-event state updates fold into the caller's loop instead of paying a cross-TU
// call per sample. The arithmetic is identical to the historical out-of-line bodies, so
// all pinned streams are unchanged.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  // Raw 64-bit output of the xoshiro256++ core.
  std::uint64_t NextU64();

  // Uniform double in [0, 1) with 53 random bits.
  double Uniform();
  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [0, n); n must be positive. Uses rejection to avoid modulo bias.
  std::uint64_t UniformInt(std::uint64_t n);
  bool Bernoulli(double p);

  // Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);
  // Exponential with the given rate truncated to (lo, hi); hi may be +infinity.
  double TruncatedExponential(double rate, double lo, double hi);

  // Standard normal via the polar (Marsaglia) method with one cached deviate.
  double Normal();
  double Normal(double mean, double stddev);
  double LogNormal(double mu, double sigma);

  // Gamma(shape, scale) via Marsaglia-Tsang, with the standard shape < 1 boost.
  double Gamma(double shape, double scale);

  // Poisson: Knuth product method below mean 30, normal approximation above.
  std::uint64_t Poisson(double mean);

  // Index sampled proportionally to `weights` (nonnegative, not all zero).
  std::size_t Categorical(std::span<const double> weights);
  // Index sampled proportionally to exp(log_weights), stable in log space.
  std::size_t CategoricalFromLogs(std::span<const double> log_weights);

  // k distinct indices drawn uniformly from [0, n), returned sorted (Floyd's algorithm).
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n, std::size_t k);

  // Derives an independently-seeded generator; the parent stream advances by one draw.
  Rng Fork();

 private:
  static std::uint64_t Rotl64(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<std::uint64_t, 4> state_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

inline std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl64(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl64(state_[3], 45);
  return result;
}

inline double Rng::Uniform() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

inline double Rng::Uniform(double lo, double hi) {
  QNET_DCHECK(lo <= hi, "Uniform bounds reversed");
  return lo + (hi - lo) * Uniform();
}

inline bool Rng::Bernoulli(double p) { return Uniform() < p; }

inline double Rng::Exponential(double rate) {
  QNET_CHECK(rate > 0.0, "Exponential rate must be positive: ", rate);
  return -std::log1p(-Uniform()) / rate;
}

inline std::size_t Rng::Categorical(std::span<const double> weights) {
  QNET_CHECK(!weights.empty(), "Categorical over empty support");
  double total = 0.0;
  for (double w : weights) {
    QNET_CHECK(w >= 0.0, "negative categorical weight: ", w);
    total += w;
  }
  QNET_CHECK(total > 0.0, "categorical weights sum to zero");
  double u = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;  // Floating-point slack lands on the last bin.
}

// Deterministically combines a seed with a salt (one SplitMix64 step over a golden-ratio
// offset of the pair). Distinct salts yield distinct, well-mixed seeds for the same base
// seed — used to derive independent per-color-class streams from a per-sweep seed, so
// that a sweep is a pure function of (seed, color), and per-lane and per-cell streams
// from a run seed, never of scheduling.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

// One SplitMix64 step: advances `x` and returns the mixed output. This is the seeding
// expansion of Rng's constructor, exposed so BatchRng can seed its SoA lane states
// bit-identically to constructing Rng(MixSeed(seed, lane)) per lane.
inline std::uint64_t SplitMix64Step(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace qnet

#endif  // QNET_SUPPORT_RNG_H_
