#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

/// \file triangles.h
/// Exact triangle machinery: counting, detection, and greedy maximal
/// edge-disjoint triangle packings.
///
/// The packing is the library's certified lower bound on the distance to
/// triangle-freeness: a set of t edge-disjoint triangles forces at least t
/// edge deletions, so packing_size >= eps * |E| certifies eps-farness
/// (the notion used throughout the paper, Section 2).

namespace tft {

/// Exact number of triangles, by rank-ordered neighbor intersection.
/// O(sum_e min(deg(u), deg(v))) time.
[[nodiscard]] std::uint64_t count_triangles(const Graph& g);

/// Some triangle if one exists.
[[nodiscard]] std::optional<Triangle> find_triangle(const Graph& g);

[[nodiscard]] inline bool is_triangle_free(const Graph& g) { return !find_triangle(g).has_value(); }

/// For a vee (s-x, s-y) present in g, return the closing triangle if
/// {x, y} in E.
[[nodiscard]] std::optional<Triangle> close_vee(const Graph& g, const Vee& vee);

/// Greedy maximal edge-disjoint triangle packing, scanning edges in a random
/// order. Maximality implies the result is a 1/3-approximation of the
/// maximum packing; its size is a valid lower bound on the edit distance to
/// triangle-freeness.
///
/// The rule: shuffle the edge indices (Fisher–Yates on `rng`); each edge
/// {u, v} not yet used takes the smallest w whose edges uw and vw are both
/// unused. The shuffle is the only use of `rng`, so the packing and the
/// rng state it leaves are pure functions of (g, rng), the same at any
/// thread count and kernel variant.
///
/// It runs in two phases:
///   1. Parallel listing. Every triangle u < v < w is listed once, in id
///      order, over the upper rows N+(u) = {w in N(u) : w > u} (which are
///      ranges of the sorted edge list), and offers its three closures. Each
///      edge keeps only the closure with the smallest closing vertex plus a
///      bit saying another exists. Per arc (u, v) the work is
///      O(min(|N+(u)|, |N+(v)|)) up to a log factor, because the scan flips
///      to searching N+(v) when it is more than 8x longer, so the phase is
///      O(m * sqrt(m) log m) overall (the min-degree bound on
///      sum over edges of min(deg u, deg v)). Transient memory is about
///      8 bytes per edge plus one bit, independent of the triangle count.
///   2. Serial greedy pass in the shuffled order. An edge whose smallest
///      closure is free takes it in O(1); only an edge whose smallest
///      closure is taken and that has another one searches its rows for the
///      next candidate.
[[nodiscard]] std::vector<Triangle> greedy_triangle_packing(const Graph& g, Rng& rng);

/// Lower bound on the number of edge removals needed to make g
/// triangle-free (via greedy packing).
[[nodiscard]] std::uint64_t distance_lower_bound(const Graph& g, Rng& rng);

/// Certifies eps-farness: true iff a greedy packing reaches
/// eps * |E| triangles. One-sided: `true` is always correct; `false` may be
/// conservative by at most the greedy factor 3.
[[nodiscard]] bool certify_eps_far(const Graph& g, double eps, Rng& rng);

/// All vees with the given source whose closing edge exists (i.e. the
/// triangles through `source`), up to `limit` of them. Used by tests of the
/// full-vertex machinery.
[[nodiscard]] std::vector<Triangle> triangles_through(const Graph& g, Vertex source,
                                                      std::size_t limit);

/// Maximum set of edge-disjoint triangles through `source` using only edges
/// adjacent to `source` for the vee (greedy on the closing structure).
/// Matches the "disjoint triangle-vees originating at v" quantity of
/// Definition 5; greedy matching on neighbor pairs.
[[nodiscard]] std::uint64_t disjoint_vees_at(const Graph& g, Vertex source);

}  // namespace tft
