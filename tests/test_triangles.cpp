#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/triangles.h"
#include "util/rng.h"

namespace tft {
namespace {

/// O(n^3) reference counter for cross-checking.
std::uint64_t brute_force_triangles(const Graph& g) {
  std::uint64_t c = 0;
  for (Vertex a = 0; a < g.n(); ++a) {
    for (Vertex b = a + 1; b < g.n(); ++b) {
      if (!g.has_edge(a, b)) continue;
      for (Vertex w = b + 1; w < g.n(); ++w) {
        if (g.has_edge(a, w) && g.has_edge(b, w)) ++c;
      }
    }
  }
  return c;
}

TEST(CountTriangles, SmallKnownGraphs) {
  EXPECT_EQ(count_triangles(Graph(3, {{0, 1}, {1, 2}, {0, 2}})), 1u);
  EXPECT_EQ(count_triangles(Graph(3, {{0, 1}, {1, 2}})), 0u);
  // K4 has 4 triangles.
  EXPECT_EQ(count_triangles(Graph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})), 4u);
}

TEST(CountTriangles, MatchesBruteForceOnRandomGraphs) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::gnp(40, 0.2, rng);
    EXPECT_EQ(count_triangles(g), brute_force_triangles(g));
  }
}

TEST(FindTriangle, ReturnsRealTriangle) {
  Rng rng(5);
  const Graph g = gen::gnp(60, 0.3, rng);
  const auto t = find_triangle(g);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(g.contains(*t));
}

TEST(FindTriangle, NoneOnTriangleFree) {
  Rng rng(5);
  EXPECT_FALSE(find_triangle(gen::bipartite_gnp(100, 0.3, rng)).has_value());
  EXPECT_FALSE(find_triangle(gen::random_tree(100, rng)).has_value());
  EXPECT_FALSE(find_triangle(gen::c5_blowup(50)).has_value());
  EXPECT_TRUE(is_triangle_free(gen::cycle(10)));
  EXPECT_FALSE(is_triangle_free(gen::cycle(3)));
}

TEST(CloseVee, ClosesOnlyRealVees) {
  const Graph g(4, {{0, 1}, {0, 2}, {1, 2}, {0, 3}});
  const auto t = close_vee(g, Vee{0, 1, 2});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, Triangle(0, 1, 2));
  EXPECT_FALSE(close_vee(g, Vee{0, 1, 3}).has_value());  // closing edge missing
  EXPECT_FALSE(close_vee(g, Vee{3, 1, 2}).has_value());  // vee edges missing
}

TEST(GreedyPacking, TrianglesAreEdgeDisjointAndReal) {
  Rng rng(23);
  const Graph g = gen::gnp(120, 0.15, rng);
  const auto packing = greedy_triangle_packing(g, rng);
  ASSERT_FALSE(packing.empty());
  std::unordered_set<std::uint64_t> used;
  for (const Triangle& t : packing) {
    EXPECT_TRUE(g.contains(t));
    EXPECT_TRUE(used.insert(t.e1().key()).second);
    EXPECT_TRUE(used.insert(t.e2().key()).second);
    EXPECT_TRUE(used.insert(t.e3().key()).second);
  }
}

TEST(GreedyPacking, FindsAllPlantedDisjointTriangles) {
  // Planted vertex-disjoint triangles are themselves a maximum packing; the
  // greedy scan must recover every one of them (they don't share edges with
  // anything).
  Rng rng(31);
  const Graph g = gen::planted_triangles(600, 50, rng);
  EXPECT_EQ(greedy_triangle_packing(g, rng).size(), 50u);
}

/// Wheel whose hub sits at the middle id: every rim vertex below the hub
/// has a two-element upper row against the hub's half-graph upper row, so
/// the triangle listing takes its skew guard there.
Graph mid_hub_wheel(Vertex rim) {
  const Vertex hub = rim / 2;
  std::vector<Edge> edges;
  const auto id = [hub](Vertex r) { return r < hub ? r : r + 1; };
  for (Vertex r = 0; r < rim; ++r) {
    edges.emplace_back(hub, id(r));
    edges.emplace_back(id(r), id((r + 1) % rim));
  }
  return Graph(rim + 1, std::move(edges));
}

/// FNV-1a over the packing's triangles in emission order.
std::uint64_t packing_hash(const std::vector<Triangle>& packing) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Triangle& t : packing) {
    for (const Vertex x : {t.a, t.b, t.c}) {
      h = (h ^ x) * 0x100000001b3ULL;
    }
  }
  return h;
}

struct PackingPin {
  const char* name;
  std::function<Graph(Rng&)> make;
  std::size_t size;
  std::uint64_t hash;
  std::uint64_t next_draw;  // rng.below(2^30) right after the packing
};

TEST(GreedyPacking, MatchesPinnedPackingsOnTheZoo) {
  // Packing, size and the RNG state it leaves behind, pinned from the
  // one-pass serial greedy loop. Any reordering of the candidate search or
  // of the shuffle's draws shows up here.
  const std::vector<PackingPin> pins = {
      {"gnp_400_sqrt", [](Rng& r) { return gen::gnp(400, 0.05, r); },
       568, 14132538780763477746ULL, 984755598},
      {"gnp_2500_sqrt", [](Rng& r) { return gen::gnp(2500, 0.02, r); },
       9070, 16196517299810419017ULL, 888199297},
      {"hub_matching_500_3", [](Rng& r) { return gen::hub_matching(500, 3, r); },
       616, 15846939553477595299ULL, 1035533199},
      {"hub_matching_2000_8", [](Rng& r) { return gen::hub_matching(2000, 8, r); },
       6884, 4824273844306073494ULL, 124551287},
      {"chung_lu_2000_b2.1", [](Rng& r) { return gen::chung_lu(2000, 20.0, 2.1, r); },
       2795, 7206615384028681852ULL, 817698042},
      {"chung_lu_3000_b2.2", [](Rng& r) { return gen::chung_lu(3000, 30.0, 2.2, r); },
       7085, 2699339797696035625ULL, 703652194},
      {"dense_gnp_600_0.5", [](Rng& r) { return gen::gnp(600, 0.5, r); },
       29056, 6973114996126337131ULL, 613369791},
      {"mid_hub_wheel_401", [](Rng&) { return mid_hub_wheel(400); },
       177, 2071973853640456705ULL, 210255748},
      {"planted_900_120", [](Rng& r) { return gen::planted_triangles(900, 120, r); },
       120, 1005932078021626431ULL, 846973333},
      {"barabasi_albert_1500_6", [](Rng& r) { return gen::barabasi_albert(1500, 6, r); },
       605, 14752951246729493160ULL, 674732871},
      {"empty", [](Rng&) { return Graph(); },
       0, 14695981039346656037ULL, 520216822},
      {"single_triangle", [](Rng&) { return Graph(3, {{0, 1}, {1, 2}, {0, 2}}); },
       1, 15657232601398921512ULL, 662544595},
  };
  std::uint64_t seed = 101;
  for (const PackingPin& pin : pins) {
    Rng graph_rng(seed++);
    const Graph g = pin.make(graph_rng);
    Rng rng(seed++);
    const auto packing = greedy_triangle_packing(g, rng);
    EXPECT_EQ(packing.size(), pin.size) << pin.name;
    EXPECT_EQ(packing_hash(packing), pin.hash) << pin.name;
    EXPECT_EQ(rng.below(std::uint64_t{1} << 30), pin.next_draw) << pin.name;
  }
}

TEST(DistanceLowerBound, ZeroOnTriangleFree) {
  Rng rng(3);
  EXPECT_EQ(distance_lower_bound(gen::bipartite_gnp(200, 0.1, rng), rng), 0u);
}

TEST(CertifyEpsFar, PlantedFamily) {
  Rng rng(41);
  const Graph g = gen::planted_triangles(300, 60, rng);
  // 60 triangles, |E| = 180 + 60 = 240; eps = 0.25.
  EXPECT_TRUE(certify_eps_far(g, 0.2, rng));
  EXPECT_FALSE(certify_eps_far(g, 0.5, rng));
}

TEST(TrianglesThrough, FindsLocalTriangles) {
  const Graph g(5, {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {0, 4}, {3, 4}});
  const auto ts = triangles_through(g, 0, 10);
  EXPECT_EQ(ts.size(), 2u);
  const auto limited = triangles_through(g, 0, 1);
  EXPECT_EQ(limited.size(), 1u);
}

TEST(DisjointVeesAt, CountsMatchingStructure) {
  // Vertex 0 adjacent to 1,2,3,4; closing edges {1,2} and {3,4}: two
  // disjoint vees.
  const Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {3, 4}});
  EXPECT_EQ(disjoint_vees_at(g, 0), 2u);
  // Shared endpoint: {1,2} and {1,3} closing edges -> only one disjoint vee.
  const Graph h(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
  EXPECT_EQ(disjoint_vees_at(h, 0), 1u);
  // N(3) = {0, 1} and {0,1} is an edge: exactly one vee at 3.
  EXPECT_EQ(disjoint_vees_at(h, 3), 1u);
  // A leaf-free vertex with no closing edges has none.
  const Graph star(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(disjoint_vees_at(star, 0), 0u);
}

}  // namespace
}  // namespace tft
