#include "core/exact_baseline.h"

#include <stdexcept>

#include "comm/conformance.h"
#include "graph/triangles.h"
#include "util/bits.h"

namespace tft {

ExactResult exact_find_triangle(std::span<const PlayerInput> players) {
  if (players.empty()) throw std::invalid_argument("exact_find_triangle: no players");
  // Structurally a simultaneous protocol: each player ships its whole input
  // in one message, nothing flows back.
  return run_checked(CommModel::kSimultaneous, players.size(), players.front().n(),
                     [&](Channel t) {
                       ExactResult r;
                       for (const auto& p : players) {
                         const auto m = p.local.num_edges();
                         const std::uint64_t bits = count_bits(m) + m * edge_bits(p.n());
                         t.charge(p.player_id, Direction::kPlayerToCoordinator, bits);
                         r.total_bits += bits;
                       }
                       r.triangle = find_triangle(union_graph(players));
                       return r;
                     });
}

}  // namespace tft
