#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

/// \file graph.h
/// Immutable undirected graph with CSR adjacency.
///
/// The paper's general property-testing model (Section 2): simple undirected
/// graphs on n vertices, no degree bound, distance measured in edges relative
/// to |E|. `Graph` deduplicates and orders its edge list at construction
/// (linear passes; see the constructor) and provides O(log deg) membership
/// queries.

namespace tft {

using Vertex = std::uint32_t;

/// An undirected edge, stored normalized (u < v).
struct Edge {
  Vertex u = 0;
  Vertex v = 0;

  Edge() = default;
  Edge(Vertex a, Vertex b) noexcept : u(a < b ? a : b), v(a < b ? b : a) {}

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;

  /// Dense 64-bit key; usable as a hash/map key.
  [[nodiscard]] std::uint64_t key() const noexcept {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
};

/// A triangle, stored with a < b < c.
struct Triangle {
  Vertex a = 0;
  Vertex b = 0;
  Vertex c = 0;

  Triangle() = default;
  Triangle(Vertex x, Vertex y, Vertex z) noexcept;

  [[nodiscard]] Edge e1() const noexcept { return {a, b}; }
  [[nodiscard]] Edge e2() const noexcept { return {a, c}; }
  [[nodiscard]] Edge e3() const noexcept { return {b, c}; }

  friend bool operator==(const Triangle&, const Triangle&) = default;
  friend auto operator<=>(const Triangle&, const Triangle&) = default;
};

/// A "triangle-vee" (Definition 2): two edges sharing a source vertex. The
/// vee {source-x, source-y} is a certified vee if {x, y} is also an edge.
struct Vee {
  Vertex source = 0;
  Vertex x = 0;
  Vertex y = 0;
};

class Graph {
 public:
  Graph() = default;

  /// Builds a graph on vertex set {0, ..., n-1}. Self-loops are dropped,
  /// then any endpoint >= n throws std::invalid_argument (a duplicated bad
  /// edge too); the rest is deduplicated into (u, v) order. No comparison
  /// sort runs over the whole list:
  ///   * a strictly increasing input (gnp / bipartite_gnp output, partition
  ///     slices, deduplicated messages) builds in O(n + m);
  ///   * any other input is counting-sorted by u into its upper rows N+(u),
  ///     each row sorted and deduplicated on its own:
  ///     O(n + m + sum_u d+(u) log d+(u)) time and ~4 bytes per edge of
  ///     transient thread-arena scratch.
  /// The output, memory_bytes() included, is the same either way: edges_
  /// keeps the moved-in vector (and its capacity).
  Graph(Vertex n, std::vector<Edge> edges);

  [[nodiscard]] Vertex n() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  // The accessors below sit on every kernel's innermost loop, so they index
  // unchecked; passing an out-of-range vertex or edge index is a caller bug
  // (debug builds assert).
  [[nodiscard]] const Edge& edge(std::size_t i) const noexcept {
    assert(i < edges_.size());
    return edges_[i];
  }

  [[nodiscard]] std::uint32_t degree(Vertex v) const noexcept {
    assert(v < n_);
    return offsets_[v + 1] - offsets_[v];
  }
  /// Sorted neighbor list of v.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
    assert(v < n_);
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;
  [[nodiscard]] bool has_edge(const Edge& e) const { return has_edge(e.u, e.v); }

  /// 2|E| / n; the paper's d. Zero for the empty graph.
  [[nodiscard]] double average_degree() const noexcept {
    return n_ == 0 ? 0.0 : 2.0 * static_cast<double>(edges_.size()) / static_cast<double>(n_);
  }

  /// Heap bytes backing this graph (edge list + CSR arrays); what the
  /// instance cache charges against its byte budget.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return edges_.capacity() * sizeof(Edge) + offsets_.capacity() * sizeof(std::uint32_t) +
           adj_.capacity() * sizeof(Vertex);
  }
  [[nodiscard]] Vertex max_degree() const noexcept;

  /// True if all three edges of t are present.
  [[nodiscard]] bool contains(const Triangle& t) const {
    return has_edge(t.e1()) && has_edge(t.e2()) && has_edge(t.e3());
  }
  /// True if both edges of the vee are present (the closing edge is not
  /// required; see Definition 2).
  [[nodiscard]] bool contains(const Vee& vee) const {
    return has_edge(vee.source, vee.x) && has_edge(vee.source, vee.y);
  }

 private:
  Vertex n_ = 0;
  std::vector<Edge> edges_;          // sorted, unique
  std::vector<std::uint32_t> offsets_;  // CSR row offsets, size n+1
  std::vector<Vertex> adj_;          // CSR columns, sorted per row
};

}  // namespace tft
