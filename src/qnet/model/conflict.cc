#include "qnet/model/conflict.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "qnet/support/check.h"

namespace qnet {

void ColorSweepMovesInto(const EventLog& log, std::span<const SweepMove> moves,
                         ColoringScratch& scratch, MoveColoring& out) {
  const std::size_t n = moves.size();
  out.color.resize(n);
  out.num_colors = 0;
  scratch.geometry.resize(n);
  scratch.event_colors.assign(log.NumEvents(), 0);
  // First-fit in move order. event_colors[e] holds the colors of the earlier moves whose
  // footprint holds e, so OR-ing them over move i's footprint yields exactly the colors
  // of i's already-colored conflict neighbours.
  for (std::size_t i = 0; i < n; ++i) {
    scratch.geometry[i] = log.ResolveMoveGeometry(moves[i]);
    const MoveFootprint footprint = MoveFootprintOf(moves[i], scratch.geometry[i]);
    std::uint64_t blocked = 0;
    for (EventId e : footprint.Events()) {
      blocked |= scratch.event_colors[static_cast<std::size_t>(e)];
    }
    const int c = std::countr_zero(~blocked);
    QNET_CHECK(c < kMaxSweepColors, "move ", i, " needs color ", c,
               "; distinct sweep moves need at most ", kMaxSweepColors);
    for (EventId e : footprint.Events()) {
      scratch.event_colors[static_cast<std::size_t>(e)] |= std::uint64_t{1} << c;
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
