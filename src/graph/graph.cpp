#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>

#include "util/arena.h"

namespace tft {

Triangle::Triangle(Vertex x, Vertex y, Vertex z) noexcept : a(x), b(y), c(z) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
}

Graph::Graph(Vertex n, std::vector<Edge> edges) : n_(n), edges_(std::move(edges)) {
  // One pass: drop self-loops, validate endpoints (before any dedupe, so a
  // bad duplicate throws too), and classify the order of what is left.
  std::size_t m = 0;
  bool sorted = true;    // non-decreasing
  bool distinct = true;  // no adjacent duplicates
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge e = edges_[i];
    if (e.u == e.v) continue;
    assert(e.u < e.v);  // Edge's constructor normalizes
    if (e.v >= n_) throw std::invalid_argument("Graph: edge endpoint out of range");
    const std::uint64_t key = e.key();
    if (m > 0) {
      sorted = sorted && key >= prev;
      distinct = distinct && key != prev;
    }
    prev = key;
    if (m != i) edges_[m] = e;
    ++m;
  }
  edges_.resize(m);  // shrinks in place: capacity, and so memory_bytes(), stay

  ArenaScope scope;
  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  if (!sorted) {
    // Counting sort by u into the upper rows N+(u), then sort and dedupe
    // each (short) row and write the edges back in (u, v) order.
    for (const Edge& e : edges_) ++offsets_[e.u + 1];
    for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
    const std::span<Vertex> cols = scope.arena().alloc<Vertex>(m);
    // Scatter through offsets_[u] as the row cursor: afterwards offsets_[u]
    // is the end of row u, i.e. the start of row u + 1.
    for (const Edge& e : edges_) cols[offsets_[e.u]++] = e.v;
    std::size_t out = 0;
    std::uint32_t begin = 0;
    for (Vertex u = 0; u < n_; ++u) {
      const std::uint32_t end = offsets_[u];
      if (end == begin) continue;  // a sparse union leaves most rows empty
      Vertex* row = cols.data() + begin;
      Vertex* row_end = cols.data() + end;
      begin = end;
      std::sort(row, row_end);
      row_end = std::unique(row, row_end);
      for (const Vertex* c = row; c != row_end; ++c) edges_[out++] = Edge(u, *c);
    }
    std::fill(offsets_.begin(), offsets_.end(), 0);
    edges_.resize(out);
  } else if (!distinct) {
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  }

  // Build CSR (both directions).
  for (const Edge& e : edges_) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  adj_.resize(2 * edges_.size());
  const std::span<std::uint32_t> cursor = scope.arena().alloc<std::uint32_t>(n_);
  std::copy(offsets_.begin(), offsets_.end() - 1, cursor.begin());
  for (const Edge& e : edges_) {
    adj_[cursor[e.u]++] = e.v;
    adj_[cursor[e.v]++] = e.u;
  }
  // Each row is sorted because edges_ is sorted by (u, v): row u receives v's
  // in increasing v order, and row v receives u's in increasing u order;
  // both insert orders are monotone, so rows come out sorted with no
  // per-row sort pass (tests/test_graph.cpp asserts this invariant).
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  if (u >= n_ || v >= n_ || u == v) return false;
  // Search from the lower-degree endpoint.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto ns = neighbors(u);
  return std::binary_search(ns.begin(), ns.end(), v);
}

Vertex Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (Vertex v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

}  // namespace tft
