#include "qnet/infer/move_kernel.h"

#include <algorithm>
#include <cmath>

#include "qnet/support/check.h"
#include "qnet/telemetry/timeline.h"

namespace qnet {
void CollectLatentMoves(const EventLog& log, const Observation& obs,
                        std::vector<SweepMove>& arrival_moves,
                        std::vector<SweepMove>& final_moves) {
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    const Event& ev = log.At(e);
    if (!ev.initial && !obs.ArrivalObserved(e)) {
      arrival_moves.push_back({MoveKind::kArrival, e});
    }
    if (ev.tau == kNoEvent && !obs.DepartureObserved(e)) {
      final_moves.push_back({MoveKind::kFinalDeparture, e});
    }
  }
}

std::vector<SweepMove> ConcatSweepMoves(std::span<const SweepMove> arrival_moves,
                                        std::span<const SweepMove> final_moves,
                                        bool include_finals) {
  std::vector<SweepMove> moves(arrival_moves.begin(), arrival_moves.end());
  if (include_finals) {
    moves.insert(moves.end(), final_moves.begin(), final_moves.end());
  }
  return moves;
}

BatchedExponentialMoveKernel::BatchedExponentialMoveKernel(std::span<const double> rates,
                                                           std::size_t width,
                                                           std::span<double> service_cache)
    : rates_(rates), service_cache_(service_cache), width_(width) {
  QNET_CHECK(width_ >= 1 && width_ <= kMaxBatchWidth, "batch width out of range: ", width_);
  static_assert(PiecewiseExpBatch::kMaxMoves >= kMaxBatchWidth,
                "a tile of lanes must fit in one segment batch");
}

void BatchedExponentialMoveKernel::RunBucket(EventLog& state,
                                             std::span<const SweepMove> moves,
                                             std::span<const MoveGeometry> geometry,
                                             std::uint64_t bucket_seed,
                                             PiecewiseExpBatch& batch) const {
  // One rate-vector check per bucket; the tile loop then uses the unchecked geometry
  // gathers so the compiler can overlap neighboring moves' loads.
  QNET_CHECK(static_cast<std::size_t>(state.NumQueues()) == rates_.size(), "rate vector size");
  QNET_CHECK(geometry.size() == moves.size(), "geometry must be parallel to the moves");
  if (moves.empty()) {
    return;
  }
  // Lane l is touched only by ranks ≡ l (mod width_), so a bucket smaller than the
  // width never advances the upper lanes — skip seeding them. The modulus (and with it
  // every move's stream) is width_ regardless of the lane count seeded here.
  BatchRng lanes(bucket_seed, std::min(width_, moves.size()));
  std::array<double, kMaxBatchWidth> picks;
  std::array<double, kMaxBatchWidth> invs;
  std::array<double, kMaxBatchWidth> sampled;
  ConditionalTile staged;
  PiecewiseExpBatch::SegmentRows rows;
  for (std::size_t tile_start = 0; tile_start < moves.size(); tile_start += width_) {
    // Level-3 detail: one span per SoA tile. Off by default (Timeline level 1), where
    // the cost is a single relaxed load per tile.
    ScopedSpan tile_span(SpanStage::kSweepTile);
    const std::size_t tile = std::min(width_, moves.size() - tile_start);
    // Gather: each lane's neighborhood times, staged SoA. Conflict-freedom means no
    // gather here reads a time this tile's scatter phase will write. Degenerate-window
    // moves pre-store the midpoint and get no segments; SampleAll skips them.
    // No software prefetch here: the event log at bench scale is L2-resident and the
    // out-of-order window already overlaps neighboring lanes' pointer chases, so an
    // interleaved A/B of none / next-tile-record / two-distance prefetch schemes measured
    // every prefetch variant as pure instruction overhead (1-2% slower).
    for (std::size_t l = 0; l < tile; ++l) {
      const SweepMove& move = moves[tile_start + l];
      const MoveGeometry& g = geometry[tile_start + l];
      const bool live =
          move.kind == MoveKind::kArrival
              ? staged.StageArrival(l, GatherArrivalMoveFrom(state, move.event, g, rates_))
              : staged.StageFinalDeparture(
                    l, GatherFinalDepartureMoveFrom(state, move.event, g, rates_));
      if (!live) {
        sampled[l] = 0.5 * (staged.lower[l] + staged.upper[l]);
      }
    }
    // Build: every lane's segments as one branch-free vector loop, then load the tile.
    BuildSegmentRows(staged, tile, rows);
    batch.Load(rows, tile);
    // Normalize: the tile's transcendentals as contiguous vmath sweeps.
    batch.FinalizeAll();
    // Draw: one picks row, one quantiles row — lane l advances iff it has a move this
    // tile, and degenerate moves consume (and discard) their draws so every lane's stream
    // position is a pure function of the bucket rank.
    lanes.FillUniformRows(std::span<double>(picks.data(), tile),
                          std::span<double>(invs.data(), tile));
    // Sample: inverse-CDF for the whole tile (two more vmath sweeps), then scatter.
    batch.SampleAll(std::span<const double>(picks.data(), tile),
                    std::span<const double>(invs.data(), tile),
                    std::span<double>(sampled.data(), tile));
    for (std::size_t l = 0; l < tile; ++l) {
      ScatterMoveResult(state, moves[tile_start + l], geometry[tile_start + l], sampled[l],
                        service_cache_);
    }
  }
}

void BatchedExponentialMoveKernel::RunBucketReference(EventLog& state,
                                                      std::span<const SweepMove> moves,
                                                      std::uint64_t bucket_seed) const {
  if (moves.empty()) {
    return;
  }
  BatchRng lanes(bucket_seed, std::min(width_, moves.size()));
  for (std::size_t r = 0; r < moves.size(); ++r) {
    const std::size_t lane = r % width_;
    const double u_pick = lanes.Uniform(lane);
    const double u_inv = lanes.Uniform(lane);
    const SweepMove& move = moves[r];
    PiecewiseExpDensity density;
    double sampled;
    if (move.kind == MoveKind::kArrival) {
      const ArrivalMove m = GatherArrivalMove(state, move.event, rates_);
      if (!(m.upper - m.lower > kDegenerateWindow)) {
        sampled = 0.5 * (m.lower + m.upper);
      } else {
        BuildArrivalSegmentsInto(m, density);
        density.Finalize();
        sampled = density.SampleWith(u_pick, u_inv);
      }
    } else {
      const FinalDepartureMove m = GatherFinalDepartureMove(state, move.event, rates_);
      if (std::isfinite(m.upper) && !(m.upper - m.lower > kDegenerateWindow)) {
        sampled = 0.5 * (m.lower + m.upper);
      } else {
        BuildFinalDepartureSegmentsInto(m, density);
        density.Finalize();
        sampled = density.SampleWith(u_pick, u_inv);
      }
    }
    ScatterMoveResult(state, move, sampled, service_cache_);
  }
}

}  // namespace qnet
