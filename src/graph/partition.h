#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

/// \file partition.h
/// Splitting the input graph's edges among k players (Section 2).
///
/// Each player j receives an edge subset E_j; the logical OR of all inputs
/// is E. Duplication is allowed (the same edge may be handed to several
/// players), matching the paper's default model; the no-duplication variant
/// is a separate partitioner so the specialized protocol paths (Lemma 3.2,
/// Corollaries 3.25/3.27) can be exercised.

namespace tft {

/// One player's private input: its edge subset as a Graph over the common
/// vertex set, so local degrees d_j(v) and local adjacency are O(1)/O(log).
struct PlayerInput {
  std::size_t player_id = 0;
  std::size_t k = 1;
  Graph local;  ///< the subgraph (V, E_j)

  [[nodiscard]] Vertex n() const noexcept { return local.n(); }
  [[nodiscard]] std::uint32_t local_degree(Vertex v) const { return local.degree(v); }
  /// Average degree of this player's input, the paper's \bar{d}^j.
  [[nodiscard]] double local_average_degree() const noexcept { return local.average_degree(); }
};

/// How edges are distributed.
struct PartitionOptions {
  /// Expected number of copies of each edge (>= 1). 1.0 = partition (each
  /// edge to exactly one player). Values > 1 duplicate: each edge goes to
  /// one uniform player plus each other player independently with
  /// probability (dup_factor - 1) / (k - 1).
  double dup_factor = 1.0;
  /// If true, all edges incident to a vertex tend to land on the same
  /// player (vertex-locality skew; hash of min endpoint picks the owner).
  bool by_vertex = false;
  /// Fraction of edges forced onto player 0 (adversarial skew in [0,1)).
  double heavy_fraction = 0.0;
};

/// Split g's edges among k players. The owner and duplicate draws run
/// serially over g's edges, in edge order; the k player graphs are then
/// built in parallel (above kMinChunkWork edges), so the slices, their
/// capacities and the draws are the same at any thread count.
[[nodiscard]] std::vector<PlayerInput> partition_edges(const Graph& g, std::size_t k,
                                                       const PartitionOptions& opts, Rng& rng);

/// Convenience: uniform random no-duplication partition.
[[nodiscard]] std::vector<PlayerInput> partition_random(const Graph& g, std::size_t k, Rng& rng);

/// Convenience: duplication with the given expected copy count.
[[nodiscard]] std::vector<PlayerInput> partition_duplicated(const Graph& g, std::size_t k,
                                                            double dup_factor, Rng& rng);

/// Zero-copy "partition = chunk" fast path for chunked generation
/// (graph/chunked.h): slice j becomes player j's input verbatim — no
/// partition pass, no randomness, no monolithic edge list. Each slice's
/// edge vector is moved straight into that player's Graph.
[[nodiscard]] std::vector<PlayerInput> players_from_slices(
    Vertex n, std::vector<std::vector<Edge>> slices);

/// Reassemble the union graph from the players' inputs: the exact
/// referee's view (core/exact_baseline.h) and ground truth for tests. The
/// players' sorted edge lists are cut at fixed row bounds and each row range
/// is merged on its own, in parallel above kMinChunkWork edges, into one
/// non-decreasing list; Graph's sorted path drops the duplicates that
/// overlapping (duplicated) inputs leave. O(m log k) merge work, no sort.
[[nodiscard]] Graph union_graph(std::span<const PlayerInput> players);

/// True iff no edge appears in more than one player's input.
[[nodiscard]] bool is_duplication_free(const std::vector<PlayerInput>& players);

}  // namespace tft
