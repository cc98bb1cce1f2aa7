#include "qnet/support/task_hash.h"

#include <bit>

#include "qnet/stream/task_record.h"
#include "qnet/support/check.h"

namespace qnet {
namespace {

// Canonical 64-bit encoding of a double: IEEE-754 bits, with -0.0 folded into +0.0 so the
// two representations of zero (a distinction no queueing time carries) hash identically.
std::uint64_t DoubleBits(double x) {
  if (x == 0.0) {
    x = 0.0;
  }
  return std::bit_cast<std::uint64_t>(x);
}

// The four accumulators of the version-2 encoding (task_hash.h), held rotated so that
// `next` is always the one the next word goes to: Feed folds the word into it and
// rotates, which puts word k into accumulator k % 4 without indexing and leaves the four
// chains independent for the CPU to run side by side.
struct Accumulators {
  // Accumulator k starts at kTag + k * kGolden: version 1's fixed domain tag stepped by
  // SplitMix64's golden-ratio increment.
  static constexpr std::uint64_t kTag = 0x71ee2bd356ad5e3fULL;
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  std::uint64_t next = kTag;
  std::uint64_t second = kTag + kGolden;
  std::uint64_t third = kTag + 2 * kGolden;
  std::uint64_t fourth = kTag + 3 * kGolden;
  std::uint64_t words = 0;

  void Feed(std::uint64_t word) {
    // One multiply-xorshift round: bijective in the accumulator for a fixed word.
    std::uint64_t fed = (next ^ word) * 0xd6e8feb86659fd93ULL;
    fed ^= fed >> 32;
    next = second;
    second = third;
    third = fourth;
    fourth = fed;
    ++words;
  }

  // Undoes the rotation (slot i holds accumulator (i + words) % 4) and mixes the four
  // accumulators through the strong finalizer.
  std::uint64_t Finish() const {
    const std::uint64_t slots[4] = {next, second, third, fourth};
    const std::uint64_t shift = 4 - words % 4;
    const auto acc = [&](std::uint64_t k) { return slots[(k + shift) % 4]; };
    return HashCombine(acc(0) + std::rotl(acc(1), 16),
                       std::rotl(acc(2), 32) + std::rotl(acc(3), 48));
  }
};

}  // namespace

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t value) {
  // MixSeed's step: one SplitMix64 pass over h offset by (value + 1) golden-ratio
  // increments. Bijective in h for fixed value, and a strong finalizer, so every combined
  // field avalanches through the output.
  std::uint64_t x = h + (value + 1) * 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t TaskHash(const TaskRecord& record) {
  Accumulators acc;
  acc.Feed(DoubleBits(record.entry_time));
  acc.Feed(static_cast<std::uint64_t>(record.visits.size()));
  for (const TaskVisit& visit : record.visits) {
    // queue/state packed into one word: both are small nonnegative int32s in practice,
    // and -1 sentinels widen to well-defined 0xffffffff.
    acc.Feed((static_cast<std::uint64_t>(static_cast<std::uint32_t>(visit.queue)) << 32) |
             static_cast<std::uint64_t>(static_cast<std::uint32_t>(visit.state)));
    acc.Feed(DoubleBits(visit.arrival));
    acc.Feed(DoubleBits(visit.departure));
  }
  return acc.Finish();
}

std::size_t TaskLane(std::uint64_t hash, std::size_t lanes) {
  QNET_CHECK(lanes > 0, "TaskLane needs a positive lane count");
  const std::uint64_t n = static_cast<std::uint64_t>(lanes);
#if defined(__SIZEOF_INT128__)
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(hash) * static_cast<unsigned __int128>(n)) >> 64);
#else
  // Portable 64x64 -> high-64 multiply (compilers without __int128, e.g. MSVC x86):
  // identical result, so external partitioners agree regardless of toolchain.
  const std::uint64_t hash_lo = hash & 0xffffffffULL;
  const std::uint64_t hash_hi = hash >> 32;
  const std::uint64_t n_lo = n & 0xffffffffULL;
  const std::uint64_t n_hi = n >> 32;
  const std::uint64_t mid1 = hash_hi * n_lo + ((hash_lo * n_lo) >> 32);
  const std::uint64_t mid2 = hash_lo * n_hi + (mid1 & 0xffffffffULL);
  return static_cast<std::size_t>(hash_hi * n_hi + (mid1 >> 32) + (mid2 >> 32));
#endif
}

}  // namespace qnet
