// Lane-parallel RNG facade for the batched move kernel.
//
// A bucket (one color class) of the colored sweep schedule owns one seed; the batched
// kernel executes the bucket's moves in fixed-width tiles, and each move consumes uniforms from
// the xoshiro stream of its *lane* — lane(rank) = rank mod width, stream seeded
// MixSeed(bucket_seed, lane). Which stream feeds which move is therefore a pure function
// of (bucket_seed, rank, width): never of tile shape, batch timing, or thread placement.
//
// The lane states are stored structure-of-arrays (one array per xoshiro256++ state word,
// indexed by lane) so that FillUniformRow / FillUniformRows advance all active lanes as
// one vectorizable integer sweep — the rotate/xor/shift core has no cross-lane
// dependencies. Per lane the values are the unmodified Rng::Uniform sequence of
// Rng(MixSeed(bucket_seed, lane)): seeding runs the same SplitMix64 expansion as Rng's
// constructor (via SplitMix64Step) and the step is the same xoshiro256++ update, so the
// streams are bit-identical by construction (pinned by the golden-stream tests in
// tests/test_move_batch.cc). Uniform(l) is the scalar one-lane step the reference kernel
// draws from move-at-a-time — same state, same values.
//
// Everything is fixed-capacity and lives wherever the facade is placed (the kernel keeps
// it on the stack), so a bucket's whole RNG state costs zero heap allocations.

#ifndef QNET_SUPPORT_BATCH_RNG_H_
#define QNET_SUPPORT_BATCH_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "qnet/support/check.h"
#include "qnet/support/rng.h"

namespace qnet {

// Hard cap on the tile width of the batched kernel (and so on the lane count here).
inline constexpr std::size_t kMaxBatchWidth = 32;

class BatchRng {
 public:
  // Seeds `width` independent lane streams: lane l runs Rng(MixSeed(bucket_seed, l)).
  BatchRng(std::uint64_t bucket_seed, std::size_t width) : width_(width) {
    QNET_CHECK(width >= 1 && width <= kMaxBatchWidth, "bad batch width: ", width);
    // One branch-free integer sweep across the lanes (MixSeed is inline, so the loop
    // vectorizes like the row fills).
    for (std::size_t l = 0; l < width_; ++l) {
      // Mirrors Rng's constructor: four SplitMix64 words, with the same all-zero guard
      // written as a select.
      std::uint64_t sm = MixSeed(bucket_seed, static_cast<std::uint64_t>(l));
      const std::uint64_t a = SplitMix64Step(sm);
      const std::uint64_t b = SplitMix64Step(sm);
      const std::uint64_t c = SplitMix64Step(sm);
      const std::uint64_t d = SplitMix64Step(sm);
      s0_[l] = (a | b | c | d) == 0 ? 0x9e3779b97f4a7c15ULL : a;
      s1_[l] = b;
      s2_[l] = c;
      s3_[l] = d;
    }
  }

  std::size_t Width() const { return width_; }

  // Next Uniform() of lane l alone (the scalar reference path draws from it per move;
  // the batched path drains the same streams through the row fills — same values).
  double Uniform(std::size_t l) {
    QNET_DCHECK(l < width_, "lane out of range: ", l);
    std::uint64_t a = s0_[l], b = s1_[l], c = s2_[l], d = s3_[l];
    const double out = StepLane(a, b, c, d);
    s0_[l] = a;
    s1_[l] = b;
    s2_[l] = c;
    s3_[l] = d;
    return out;
  }

  // out[l] = next Uniform() of lane l, for l < out.size() (the tile's active lanes; the
  // final tile of a bucket is allowed to be narrower than the width). Inactive lanes do
  // not advance.
  void FillUniformRow(std::span<double> out) {
    QNET_DCHECK(out.size() <= width_, "row wider than the lane count");
    for (std::size_t l = 0; l < out.size(); ++l) {
      std::uint64_t a = s0_[l], b = s1_[l], c = s2_[l], d = s3_[l];
      out[l] = StepLane(a, b, c, d);
      s0_[l] = a;
      s1_[l] = b;
      s2_[l] = c;
      s3_[l] = d;
    }
  }

  // Two rows in one sweep: row0[l] then row1[l] are lane l's next two uniforms — the
  // same values two FillUniformRow calls would produce, with each lane's state loaded
  // and stored once. This is the kernel's per-tile draw (u_pick row, then u_inv row).
  void FillUniformRows(std::span<double> row0, std::span<double> row1) {
    QNET_DCHECK(row0.size() == row1.size(), "row length mismatch");
    QNET_DCHECK(row0.size() <= width_, "row wider than the lane count");
    for (std::size_t l = 0; l < row0.size(); ++l) {
      std::uint64_t a = s0_[l], b = s1_[l], c = s2_[l], d = s3_[l];
      row0[l] = StepLane(a, b, c, d);
      row1[l] = StepLane(a, b, c, d);
      s0_[l] = a;
      s1_[l] = b;
      s2_[l] = c;
      s3_[l] = d;
    }
  }

 private:
  static std::uint64_t Rotl64(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // One xoshiro256++ step over in-register state words: identical arithmetic to
  // Rng::NextU64 + Rng::Uniform, written over locals so the row fills keep each lane's
  // state out of memory between draws.
  static double StepLane(std::uint64_t& a, std::uint64_t& b, std::uint64_t& c,
                         std::uint64_t& d) {
    const std::uint64_t result = Rotl64(a + d, 23) + a;
    const std::uint64_t t = b << 17;
    c ^= a;
    d ^= b;
    b ^= c;
    a ^= d;
    c ^= t;
    d = Rotl64(d, 45);
    return static_cast<double>(result >> 11) * 0x1.0p-53;
  }

  std::size_t width_;
  // xoshiro256++ state word i of lane l at si_[l] (SoA across lanes).
  std::array<std::uint64_t, kMaxBatchWidth> s0_;
  std::array<std::uint64_t, kMaxBatchWidth> s1_;
  std::array<std::uint64_t, kMaxBatchWidth> s2_;
  std::array<std::uint64_t, kMaxBatchWidth> s3_;
};

}  // namespace qnet

#endif  // QNET_SUPPORT_BATCH_RNG_H_
