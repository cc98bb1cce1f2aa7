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

// The most colors first-fit can use on a list of distinct sweep moves. A footprint holds
// at most 6 events (MoveFootprint::kMaxEvents). An event x lies in at most 9 footprints:
// those of the arrival moves on x, tau(x), tau(nu(x)), nu(x), rho(x) and tau(rho(x))
// (x in the role e, pi, rho(pi), rho, nu and nu(pi) of MoveFootprintOf) and of the
// final-departure moves on x, nu(x) and rho(x) (x as e, rho and nu). So a move
// conflicts with at most 6 * 8 = 48 others, and first-fit needs at most 49 colors: one
// 64-bit mask per event holds every color class that touches it.
inline constexpr int kMaxSweepColors = 49;

// Reusable buffers for ColorSweepMovesInto. Holding one of these across recolorings (the
// sweep scheduler keeps one per instance) makes a same-shaped recoloring
// allocation-free: every vector is resized or assign()ed, so capacity persists.
struct ColoringScratch {
  // Per move, in move order: its resolved neighbour ids. The sweep scheduler keeps the
  // geometry, so one link walk per move serves both the coloring and the schedule.
  std::vector<MoveGeometry> geometry;
  // Per event: bit c is set once a move of color c holds the event in its footprint.
  std::vector<std::uint64_t> event_colors;
};

// Greedy first-fit coloring of the footprint-conflict graph, in move order, over
// distinct moves. Deterministic and O(moves x footprint): each move ORs the color masks
// of its footprint's events, takes the lowest color not in the union, and sets that
// color's bit in each of those masks.
MoveColoring ColorSweepMoves(const EventLog& log, std::span<const SweepMove> moves);

// In-place variant: identical colors, with all working memory drawn from `scratch` and
// the result written into `out` — no allocations once the buffers are warm.
void ColorSweepMovesInto(const EventLog& log, std::span<const SweepMove> moves,
                         ColoringScratch& scratch, MoveColoring& out);

}  // namespace qnet

#endif  // QNET_MODEL_CONFLICT_H_
