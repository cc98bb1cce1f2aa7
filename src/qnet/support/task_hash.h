// Stable, well-mixed hashing of TaskRecords for stream partitioning.
//
// TaskHash is the partition key of the sharded streaming front-end (shard/lane_router.h):
// it digests a task's physical identity — entry time, visit count, and every visit's
// (queue, state, arrival, departure) — so the value is a pure function of the record's
// bytes:
//   * stable across lane counts: the hash never depends on how many lanes it is later
//     reduced onto, so growing a fleet from 2 to 4 lanes re-shards tasks without any
//     record hashing to a "new" identity;
//   * stable across platforms and standard libraries: only unsigned 64-bit arithmetic and
//     IEEE-754 bit patterns are used (no std::hash, no size_t width dependence), so the
//     same record hashes identically on every host — a requirement for external
//     partitioners (e.g. a collector fleet sharding upstream of this process) to agree
//     with LaneRouter on task placement;
//   * well-mixed: single-bit input changes flip about half the output bits (avalanche),
//     so low-entropy inputs (regular entry times, small queue ids) still spread uniformly.
//
// Observation flags are deliberately excluded: whether a time was *measured* is telemetry
// about a task, not its identity, and an external partitioner may not know the sampling
// scheme. Two records differing only in flags land on the same lane.
//
// Contract version 2. The record is encoded as the word sequence
//   w0 = bits(entry_time), w1 = visit count,
//   then per visit: (uint32(queue) << 32 | uint32(state)), bits(arrival), bits(departure)
// where bits() is the IEEE-754 pattern with -0.0 folded into +0.0. Word k is folded into
// accumulator k % 4 by one multiply-xorshift round,
//   a = (a ^ w) * 0xd6e8feb86659fd93;  a ^= a >> 32,
// accumulator k starting at 0x71ee2bd356ad5e3f + k * 0x9e3779b97f4a7c15 (version 1's
// domain tag stepped by SplitMix64's increment, mod 2^64). One strong finalizer mixes
// them: the result is HashCombine(a0 + rotl(a1, 16), rotl(a2, 32) + rotl(a3, 48)).
// Version 1 folded every word into one HashCombine chain, 2 + 3 * visits SplitMix64
// steps in series, which made hashing about a fifth of a sampler-free fleet's per-record
// cost; the four accumulators are independent chains a CPU runs side by side, each
// round is bijective in its accumulator, so any one changed word changes the
// finalizer's input, and the finalizer avalanches it. The field set, flag exclusion, -0 folding and TaskLane are
// unchanged, but the values are not: an external partitioner must hash with version 2.
//
// TaskLane reduces a hash onto `lanes` buckets with the multiply-shift ("fastrange") map
// lane = floor(hash * lanes / 2^64), which uses the hash's high bits (uniform by the
// avalanche property) and avoids the modulo's bias and its division. It is part of the
// stable contract: external partitioners must use the same reduction.

#ifndef QNET_SUPPORT_TASK_HASH_H_
#define QNET_SUPPORT_TASK_HASH_H_

#include <cstddef>
#include <cstdint>

namespace qnet {

struct TaskRecord;

// One SplitMix64 mixing step folding `value` into `h` (the same bijective step MixSeed
// applies): TaskHash's finalizer. Exposed so external partitioners can hash their own
// record encodings compatibly.
std::uint64_t HashCombine(std::uint64_t h, std::uint64_t value);

// Digest of the record's physical identity (see file comment for the exact encoding).
std::uint64_t TaskHash(const TaskRecord& record);

// Reduces a TaskHash onto [0, lanes) via multiply-shift; lanes must be positive.
std::size_t TaskLane(std::uint64_t hash, std::size_t lanes);

}  // namespace qnet

#endif  // QNET_SUPPORT_TASK_HASH_H_
