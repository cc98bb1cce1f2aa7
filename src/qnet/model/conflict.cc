#include "qnet/model/conflict.h"

#include <algorithm>
#include <cstdint>

#include "qnet/support/check.h"

namespace qnet {

void ColorSweepMovesInto(const EventLog& log, std::span<const SweepMove> moves,
                         ColoringScratch& scratch, MoveColoring& out) {
  const std::size_t n = moves.size();
  out.color.assign(n, -1);
  out.num_colors = 0;
  if (n == 0) {
    return;
  }

  // Incidence as CSR: event -> indices of moves whose footprint touches it. Every conflict
  // edge appears as two moves sharing one per-event slice, so neighbor enumeration during
  // coloring is a walk over the footprint's slices instead of a quadratic pairwise scan.
  // Two passes (count, then fill in move order) keep each slice in ascending move order —
  // exactly the order the list-of-lists build produced — so first-fit colors identically.
  const std::size_t num_events = log.NumEvents();
  scratch.geometry.resize(n);
  scratch.footprints.resize(n);
  scratch.touch_offsets.assign(num_events + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.geometry[i] = log.ResolveMoveGeometry(moves[i]);
    scratch.footprints[i] = MoveFootprintOf(moves[i], scratch.geometry[i]);
    for (EventId e : scratch.footprints[i].Events()) {
      ++scratch.touch_offsets[static_cast<std::size_t>(e) + 1];
    }
  }
  for (std::size_t e = 0; e < num_events; ++e) {
    scratch.touch_offsets[e + 1] += scratch.touch_offsets[e];
  }
  scratch.touch_cursor.assign(scratch.touch_offsets.begin(), scratch.touch_offsets.end() - 1);
  scratch.touch_moves.resize(static_cast<std::size_t>(scratch.touch_offsets[num_events]));
  for (std::size_t i = 0; i < n; ++i) {
    for (EventId e : scratch.footprints[i].Events()) {
      scratch.touch_moves[static_cast<std::size_t>(
          scratch.touch_cursor[static_cast<std::size_t>(e)]++)] = static_cast<std::int32_t>(i);
    }
  }

  // First-fit in move order: blocked[c] == i+1 marks color c used by a neighbor of i.
  scratch.blocked.clear();
  for (std::size_t i = 0; i < n; ++i) {
    for (EventId e : scratch.footprints[i].Events()) {
      const std::size_t begin = static_cast<std::size_t>(
          scratch.touch_offsets[static_cast<std::size_t>(e)]);
      const std::size_t end = static_cast<std::size_t>(
          scratch.touch_offsets[static_cast<std::size_t>(e) + 1]);
      for (std::size_t k = begin; k < end; ++k) {
        const int c = out.color[static_cast<std::size_t>(scratch.touch_moves[k])];
        if (c < 0) {
          continue;  // neighbor not colored yet (its index >= i in move order)
        }
        if (static_cast<std::size_t>(c) >= scratch.blocked.size()) {
          scratch.blocked.resize(static_cast<std::size_t>(c) + 1, 0);
        }
        scratch.blocked[static_cast<std::size_t>(c)] = i + 1;
      }
    }
    int c = 0;
    while (static_cast<std::size_t>(c) < scratch.blocked.size() &&
           scratch.blocked[static_cast<std::size_t>(c)] == i + 1) {
      ++c;
    }
    out.color[i] = c;
    out.num_colors = std::max(out.num_colors, c + 1);
  }
}

MoveColoring ColorSweepMoves(const EventLog& log, std::span<const SweepMove> moves) {
  ColoringScratch scratch;
  MoveColoring out;
  ColorSweepMovesInto(log, moves, scratch, out);
  return out;
}

}  // namespace qnet
