// Conflict graph and greedy coloring over a sweep's Gibbs moves.
//
// Two moves conflict when their footprints (EventLog::ComputeMoveFootprint) share an
// event: one may then read a time the other writes, so they must not share a batch.
// Moves with disjoint footprints commute — this is the locality the paper's single-site
// conditionals provide (each move touches only the departure being moved, its queue
// predecessors/successors, and the downstream arrival), and it is what lets the batched
// kernel sample a whole color class tile by tile.
//
// ColorSweepMoves partitions a move list into conflict-free color classes with a greedy
// first-fit pass in move order. The result is a pure function of the link structure and
// the move order (times are never read), so a coloring computed once per trace stays
// valid for every subsequent sweep, and identical inputs color identically on every
// machine — the determinism the colored sweep schedule builds on.

#ifndef QNET_MODEL_CONFLICT_H_
#define QNET_MODEL_CONFLICT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "qnet/model/event.h"

namespace qnet {

struct MoveColoring {
  // color[i] is the color class of moves[i]; classes are conflict-free by construction.
  std::vector<int> color;
  int num_colors = 0;
};

// Reusable buffers for ColorSweepMovesInto. Holding one of these across recolorings (the
// sweep scheduler keeps one per instance) makes a same-shaped recoloring
// allocation-free: every vector is assign()ed, so capacity persists.
struct ColoringScratch {
  // Per move, in move order: its resolved neighbour ids and the footprint derived from
  // them. The sweep scheduler keeps the geometry, so one link walk per move serves both.
  std::vector<MoveGeometry> geometry;
  std::vector<MoveFootprint> footprints;
  // CSR incidence event -> move indices: the moves touching event e are
  // touch_moves[touch_offsets[e] .. touch_offsets[e + 1]).
  std::vector<std::int32_t> touch_offsets;
  std::vector<std::int32_t> touch_cursor;
  std::vector<std::int32_t> touch_moves;
  std::vector<std::size_t> blocked;
};

// Greedy first-fit coloring of the footprint-conflict graph. Deterministic; O(moves ×
// footprint × incidence) with all bounds constant, so effectively linear in the move
// count. The chromatic count is small in practice (the conflict graph has bounded degree:
// an event appears in only a handful of footprints).
MoveColoring ColorSweepMoves(const EventLog& log, std::span<const SweepMove> moves);

// In-place variant: identical colors (the CSR incidence preserves the per-event move
// order of the list-of-lists build, so the first-fit pass sees the same neighbor
// sequence), with all working memory drawn from `scratch` and the result written into
// `out` — no allocations once the buffers are warm.
void ColorSweepMovesInto(const EventLog& log, std::span<const SweepMove> moves,
                         ColoringScratch& scratch, MoveColoring& out);

}  // namespace qnet

#endif  // QNET_MODEL_CONFLICT_H_
