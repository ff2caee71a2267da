#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace tft {
namespace {

TEST(Edge, NormalizesEndpoints) {
  const Edge e(5, 2);
  EXPECT_EQ(e.u, 2u);
  EXPECT_EQ(e.v, 5u);
  EXPECT_EQ(Edge(2, 5), e);
}

TEST(Edge, KeyIsInjective) {
  EXPECT_NE(Edge(1, 2).key(), Edge(1, 3).key());
  EXPECT_NE(Edge(1, 2).key(), Edge(2, 3).key());
  EXPECT_EQ(Edge(4, 1).key(), Edge(1, 4).key());
}

TEST(Triangle, SortsVertices) {
  const Triangle t(9, 3, 7);
  EXPECT_EQ(t.a, 3u);
  EXPECT_EQ(t.b, 7u);
  EXPECT_EQ(t.c, 9u);
  EXPECT_EQ(t.e1(), Edge(3, 7));
  EXPECT_EQ(t.e3(), Edge(7, 9));
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.n(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
}

TEST(Graph, DeduplicatesAndDropsSelfLoops) {
  const Graph g(4, {{0, 1}, {1, 0}, {2, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
}

TEST(Graph, DegreesAndNeighborsAreConsistent) {
  const Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}});
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(4), 1u);
  const auto ns = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(ns.begin(), ns.end()));
  EXPECT_EQ(ns.size(), 3u);
  std::uint64_t degree_sum = 0;
  for (Vertex v = 0; v < g.n(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

TEST(Graph, HasEdgeSymmetry) {
  const Graph g(4, {{0, 1}, {2, 3}});
  for (Vertex u = 0; u < 4; ++u) {
    for (Vertex v = 0; v < 4; ++v) {
      EXPECT_EQ(g.has_edge(u, v), g.has_edge(v, u));
    }
  }
}

TEST(Graph, AverageAndMaxDegree) {
  const Graph g(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, ContainsTriangleAndVee) {
  const Graph g(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_TRUE(g.contains(Triangle(0, 1, 2)));
  EXPECT_FALSE(g.contains(Triangle(1, 2, 3)));
  EXPECT_TRUE(g.contains(Vee{2, 0, 3}));
  EXPECT_FALSE(g.contains(Vee{3, 0, 2}));
}

TEST(Graph, EdgesAreSortedUnique) {
  const Graph g(6, {{5, 4}, {1, 0}, {3, 2}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(std::is_sorted(g.edges().begin(), g.edges().end()));
}

// The sort-based construction the library used to run, kept here as the
// reference model: drop self-loops, sort, dedupe, then fill both CSR rows.
// The library's edges_ keeps the moved-in vector's capacity; offsets_ and
// adj_ are sized n + 1 and 2m.
struct ReferenceGraph {
  std::vector<Edge> edges;
  std::vector<std::vector<Vertex>> rows;
  std::size_t memory_bytes = 0;
};

std::vector<Edge> sorted_unique(std::vector<Edge> edges) {
  std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

ReferenceGraph reference_build(Vertex n, const std::vector<Edge>& input) {
  ReferenceGraph r;
  std::vector<Edge> edges = sorted_unique(input);
  r.rows.resize(n);
  for (const Edge& e : edges) {
    r.rows[e.u].push_back(e.v);
    r.rows[e.v].push_back(e.u);
  }
  for (auto& row : r.rows) std::sort(row.begin(), row.end());
  r.memory_bytes = input.capacity() * sizeof(Edge) +
                   (static_cast<std::size_t>(n) + 1) * sizeof(std::uint32_t) +
                   2 * edges.size() * sizeof(Vertex);
  r.edges = std::move(edges);
  return r;
}

void expect_matches_reference(Vertex n, const std::vector<Edge>& input, const std::string& shape) {
  SCOPED_TRACE(shape + " n=" + std::to_string(n) + " m=" + std::to_string(input.size()));
  std::vector<Edge> moved = input;
  moved.reserve(input.size() + input.size() / 3);  // capacity != size, as from a staging buffer
  const ReferenceGraph ref = reference_build(n, moved);
  const Graph g(n, std::move(moved));
  ASSERT_EQ(g.n(), n);
  ASSERT_EQ(g.num_edges(), ref.edges.size());
  EXPECT_TRUE(std::equal(g.edges().begin(), g.edges().end(), ref.edges.begin()));
  for (Vertex v = 0; v < n; ++v) {
    const auto row = g.neighbors(v);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), ref.rows[v].begin(), ref.rows[v].end()))
        << "row " << v;
  }
  EXPECT_EQ(g.memory_bytes(), ref.memory_bytes);
}

std::vector<Edge> random_edges(Vertex n, std::size_t m, Rng& rng) {
  std::vector<Edge> out;
  out.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    out.emplace_back(static_cast<Vertex>(rng.below(n)), static_cast<Vertex>(rng.below(n)));
  }
  return out;
}

TEST(Graph, ConstructionMatchesSortReference) {
  Rng rng(20240515);
  for (const Vertex n : {2u, 3u, 17u, 200u, 5000u}) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{40}, std::size_t{3000},
                                std::size_t{60000}}) {
      const std::vector<Edge> shuffled = random_edges(n, m, rng);
      expect_matches_reference(n, shuffled, "shuffled");

      const std::vector<Edge> presorted = sorted_unique(shuffled);
      expect_matches_reference(n, presorted, "presorted");

      std::vector<Edge> with_dups;
      for (const Edge& e : presorted) {
        with_dups.push_back(e);
        if (rng.below(3) == 0) with_dups.push_back(e);
      }
      expect_matches_reference(n, with_dups, "presorted with adjacent duplicates");

      const std::vector<Edge> reversed(presorted.rbegin(), presorted.rend());
      expect_matches_reference(n, reversed, "reversed");

      // The referee's union: k players' sorted slices, concatenated; some
      // edges are held by more than one player.
      for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
        std::vector<std::vector<Edge>> slices(k);
        for (const Edge& e : presorted) {
          slices[rng.below(k)].push_back(e);
          if (rng.below(8) == 0) slices[rng.below(k)].push_back(e);
        }
        std::vector<Edge> runs;
        for (const auto& slice : slices) runs.insert(runs.end(), slice.begin(), slice.end());
        expect_matches_reference(n, runs, "k=" + std::to_string(k) + " sorted runs");
      }

      // One hub holding most edges, at the lowest id (one long upper row),
      // the highest (edges spread over every other upper row) and between.
      for (const Vertex hub : {Vertex{0}, n - 1, n / 2}) {
        std::vector<Edge> star;
        for (std::size_t i = 0; i < m; ++i) {
          const auto other = static_cast<Vertex>(rng.below(n));
          if (rng.below(10) == 0) {
            star.emplace_back(static_cast<Vertex>(rng.below(n)), other);
          } else {
            star.emplace_back(hub, other);
          }
        }
        expect_matches_reference(n, star, "hub " + std::to_string(hub));
        expect_matches_reference(n, sorted_unique(star), "sorted hub " + std::to_string(hub));
      }
    }
  }

  expect_matches_reference(1, {}, "n=1 empty");
  expect_matches_reference(1, {Edge(0, 0), Edge(0, 0)}, "n=1 self-loops");
  expect_matches_reference(0, {}, "n=0 empty");
  expect_matches_reference(1000, {}, "isolated vertices");
  expect_matches_reference(1000, {Edge(999, 3), Edge(5, 5), Edge(3, 999)},
                           "mostly isolated, unsorted");
  expect_matches_reference(1000, {Edge(3, 999), Edge(400, 401)}, "mostly isolated, sorted");
  expect_matches_reference(5, {Edge(2, 2), Edge(1, 1)}, "only self-loops");
}

TEST(Graph, RejectsOutOfRangeEndpointOnEveryPath) {
  // Presorted (the no-reorder path).
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 2}, {2, 3}}), std::invalid_argument);
  // Presorted with the bad edge duplicated.
  EXPECT_THROW(Graph(3, {{0, 1}, {0, 3}, {0, 3}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1}, {0, 1}, {1, 5}}), std::invalid_argument);
  // Unsorted (the counting-sort path), first, middle and last.
  EXPECT_THROW(Graph(3, {{0, 4}, {1, 2}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{1, 2}, {0, 3}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{1, 2}, {0, 1}, {2, 3}}), std::invalid_argument);
  // Unsorted, the bad edge duplicating an earlier one.
  EXPECT_THROW(Graph(4, {{1, 4}, {0, 1}, {1, 4}}), std::invalid_argument);
  EXPECT_THROW(Graph(4, {{2, 3}, {1, 7}, {0, 1}, {7, 1}}), std::invalid_argument);
  // n = 0: every non-loop edge is out of range.
  EXPECT_THROW(Graph(0, {{0, 1}}), std::invalid_argument);
  // Self-loops are dropped before validation, whatever their endpoint.
  EXPECT_NO_THROW(Graph(3, {{0, 1}, {7, 7}}));
  EXPECT_NO_THROW(Graph(3, {{7, 7}, {0, 1}, {1, 2}, {0, 2}}));

  // A large list of each shape with one bad edge planted at a random spot.
  Rng rng(77);
  const Vertex n = 2000;
  const std::vector<Edge> shuffled = random_edges(n, 20000, rng);
  const std::vector<Edge> presorted = sorted_unique(shuffled);
  for (int trial = 0; trial < 8; ++trial) {
    const Edge bad(static_cast<Vertex>(rng.below(n)), n + static_cast<Vertex>(rng.below(3)));
    for (std::vector<Edge> list : {shuffled, presorted}) {
      if (std::is_sorted(list.begin(), list.end())) {
        // Keep it sorted: a bad edge (u, v >= n) sorts after every good
        // edge from u, so insert it there, twice.
        const auto at = std::upper_bound(list.begin(), list.end(), Edge(bad.u, n - 1));
        list.insert(at, {bad, bad});
        ASSERT_TRUE(std::is_sorted(list.begin(), list.end()));
      } else {
        list.insert(list.begin() + static_cast<std::ptrdiff_t>(rng.below(list.size() + 1)), bad);
      }
      EXPECT_THROW(Graph(n, std::move(list)), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace tft
