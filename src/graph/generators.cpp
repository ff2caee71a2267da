#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "graph/pair_sampling.h"
#include "util/arena.h"
#include "util/parallel.h"

namespace tft::gen {

namespace {

void shuffle_vertices(std::span<Vertex> vs, Rng& rng) {
  for (std::size_t i = vs.size(); i > 1; --i) std::swap(vs[i - 1], vs[rng.below(i)]);
}

/// Identity permutation staged in `arena` (shuffle buffers are transient:
/// growth churn stays inside reused arena blocks).
std::span<Vertex> arena_iota(Arena& arena, std::size_t count, Vertex first) {
  const std::span<Vertex> vs = arena.alloc<Vertex>(count);
  std::iota(vs.begin(), vs.end(), first);
  return vs;
}

/// Expected kept indices of a range of `total` sampled at p.
double expected_kept(std::uint64_t total, double p) {
  return static_cast<double>(total) * std::clamp(p, 0.0, 1.0);
}

/// Appends one edge per index of a sampled batch: map(piece, out) fills
/// out[i] from piece[i]. Pieces of kMinChunkWork indices run in parallel.
template <typename Map>
void append_mapped(ArenaBuf<Edge>& edges, IndexBatch batch, Map&& map) {
  const std::span<Edge> out = edges.extend(batch.size());
  const std::size_t pieces = (batch.size() + kMinChunkWork - 1) / kMinChunkWork;
  parallel_for(
      pieces,
      [&](std::size_t c) {
        const std::size_t lo = c * kMinChunkWork;
        const std::size_t len = std::min(kMinChunkWork, batch.size() - lo);
        map(batch.subspan(lo, len), out.subspan(lo, len));
      },
      1);
}

}  // namespace

Graph gnp(Vertex n, double p, Rng& rng) {
  // Edge staging goes through the thread arena: the doubling growth of the
  // unpredictable-size edge list reuses warm blocks across calls, and the
  // vector handed to Graph is allocated once at its exact final size.
  ArenaScope scope;
  // pair_count keeps the n*(n-1)/2 arithmetic in 64 bits: past n = 2^16 the
  // pair space no longer fits 32 bits, past n ~ 92682 it exceeds 2^32.
  const std::uint64_t total = pair_count(n);
  const std::span<std::uint64_t> scratch = skip_scratch(scope.arena(), expected_kept(total, p));
  ArenaBuf<Edge> edges(scope.arena());
  skip_sample_range(0, total, p, rng, scratch, [&](IndexBatch batch) {
    append_mapped(edges, batch, [n](IndexBatch piece, std::span<Edge> out) {
      Edge* next = out.data();
      unrank_increasing(piece, n, [&](Edge e) { *next++ = e; });
    });
  });
  return Graph(n, edges.take());
}

Graph bipartite_gnp(Vertex n, double p, Rng& rng) {
  const Vertex a = n / 2;
  const Vertex b = n - a;
  const std::uint64_t total = static_cast<std::uint64_t>(a) * b;
  ArenaScope scope;
  const std::span<std::uint64_t> scratch = skip_scratch(scope.arena(), expected_kept(total, p));
  ArenaBuf<Edge> edges(scope.arena());
  skip_sample_range(0, total, p, rng, scratch, [&](IndexBatch batch) {
    append_mapped(edges, batch, [a, b](IndexBatch piece, std::span<Edge> out) {
      for (std::size_t i = 0; i < piece.size(); ++i) {
        out[i] = Edge(static_cast<Vertex>(piece[i] / b), static_cast<Vertex>(a + piece[i] % b));
      }
    });
  });
  return Graph(n, edges.take());
}

Graph complete_bipartite(Vertex a, Vertex b) {
  assert(static_cast<std::uint64_t>(a) + b <= std::numeric_limits<Vertex>::max());
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (Vertex u = 0; u < a; ++u) {
    for (Vertex v = 0; v < b; ++v) edges.emplace_back(u, a + v);
  }
  return Graph(a + b, std::move(edges));
}

Graph random_tree(Vertex n, Rng& rng) {
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (Vertex v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<Vertex>(rng.below(v)), v);
  }
  return Graph(n, std::move(edges));
}

Graph star(Vertex n) {
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (Vertex v = 1; v < n; ++v) edges.emplace_back(0, v);
  return Graph(n, std::move(edges));
}

Graph cycle(Vertex n) {
  std::vector<Edge> edges;
  if (n >= 3) {
    edges.reserve(n);
    for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
    edges.emplace_back(0, n - 1);
  } else if (n == 2) {
    edges.emplace_back(0, 1);
  }
  return Graph(n, std::move(edges));
}

Graph random_matching(Vertex n, Rng& rng) {
  ArenaScope scope;
  const std::span<Vertex> vs = arena_iota(scope.arena(), n, 0);
  shuffle_vertices(vs, rng);
  std::vector<Edge> edges;
  edges.reserve(n / 2);
  for (Vertex i = 0; i + 1 < n; i += 2) edges.emplace_back(vs[i], vs[i + 1]);
  return Graph(n, std::move(edges));
}

Graph c5_blowup(Vertex n) {
  const Vertex per = n / 5;
  if (per == 0) return Graph(n, {});
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(per) * per * 5);
  const auto cls = [&](Vertex c, Vertex i) { return static_cast<Vertex>(c * per + i); };
  for (Vertex c = 0; c < 5; ++c) {
    const Vertex nc = (c + 1) % 5;
    for (Vertex i = 0; i < per; ++i) {
      for (Vertex j = 0; j < per; ++j) edges.emplace_back(cls(c, i), cls(nc, j));
    }
  }
  return Graph(n, std::move(edges));
}

Graph planted_triangles(Vertex n, std::uint32_t t, Rng& rng) {
  if (static_cast<std::uint64_t>(t) * 3 > n) {
    throw std::invalid_argument("planted_triangles: need n >= 3t");
  }
  std::vector<Edge> edges;
  edges.reserve(3 * static_cast<std::size_t>(t) + (n - 3 * t) / 2);
  for (std::uint32_t i = 0; i < t; ++i) {
    const Vertex a = 3 * i;
    edges.emplace_back(a, a + 1);
    edges.emplace_back(a, a + 2);
    edges.emplace_back(a + 1, a + 2);
  }
  // Triangle-free noise: a random matching on the remaining vertices. A
  // matching cannot create triangles nor touch the planted ones.
  ArenaScope scope;
  const std::span<Vertex> rest = arena_iota(scope.arena(), n - 3 * t, static_cast<Vertex>(3 * t));
  shuffle_vertices(rest, rng);
  for (std::size_t i = 0; i + 1 < rest.size(); i += 2) {
    edges.emplace_back(rest[i], rest[i + 1]);
  }
  return Graph(n, std::move(edges));
}

Graph hub_matching(Vertex n, std::uint32_t hubs, Rng& rng) {
  if (hubs >= n) throw std::invalid_argument("hub_matching: hubs must be < n");
  std::vector<Edge> edges;
  ArenaScope scope;
  const std::span<Vertex> rest = arena_iota(scope.arena(), n - hubs, static_cast<Vertex>(hubs));
  const std::size_t pairs = rest.size() / 2;
  edges.reserve(static_cast<std::size_t>(hubs) * pairs * 3);
  for (Vertex h = 0; h < hubs; ++h) {
    shuffle_vertices(rest, rng);
    for (std::size_t i = 0; i + 1 < rest.size(); i += 2) {
      const Vertex a = rest[i];
      const Vertex b = rest[i + 1];
      edges.emplace_back(h, a);
      edges.emplace_back(h, b);
      edges.emplace_back(a, b);
    }
  }
  return Graph(n, std::move(edges));
}

Graph barabasi_albert(Vertex n, std::uint32_t edges_per_vertex, Rng& rng) {
  if (edges_per_vertex == 0) throw std::invalid_argument("barabasi_albert: m must be >= 1");
  ArenaScope scope;
  ArenaBuf<Edge> edges(scope.arena());
  // Repeated-endpoint list: picking a uniform element samples proportionally
  // to degree (each edge contributes both endpoints).
  ArenaBuf<Vertex> endpoints(scope.arena());
  ArenaBuf<Vertex> targets(scope.arena());  // reused (clear per vertex)
  const Vertex seed_clique = std::min<Vertex>(n, edges_per_vertex + 1);
  for (Vertex u = 0; u < seed_clique; ++u) {
    for (Vertex v = u + 1; v < seed_clique; ++v) {
      edges.emplace_back(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (Vertex v = seed_clique; v < n; ++v) {
    targets.clear();
    for (std::uint32_t e = 0; e < edges_per_vertex && !endpoints.empty(); ++e) {
      // Sample with rejection to keep targets distinct for this vertex.
      for (int attempt = 0; attempt < 32; ++attempt) {
        const Vertex w = endpoints[rng.below(endpoints.size())];
        if (std::find(targets.begin(), targets.end(), w) == targets.end()) {
          targets.push_back(w);
          break;
        }
      }
    }
    for (const Vertex w : targets) {
      edges.emplace_back(v, w);
      endpoints.push_back(v);
      endpoints.push_back(w);
    }
  }
  return Graph(n, edges.take());
}

Graph chung_lu(Vertex n, double d_target, double beta, Rng& rng) {
  if (beta <= 2.0) throw std::invalid_argument("chung_lu: beta must be > 2");
  ArenaScope scope;
  // Weights w_i ~ (i+1)^{-1/(beta-1)}, normalized so sum w_i = n * d_target.
  const std::span<double> w = scope.arena().alloc<double>(n);
  double sum = 0.0;
  for (Vertex i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i + 1), -1.0 / (beta - 1.0));
    sum += w[i];
  }
  const double scale = static_cast<double>(n) * d_target / sum;
  for (auto& x : w) x *= scale;
  const double total = static_cast<double>(n) * d_target;  // sum of weights

  // Miller-Hagberg sampling: weights are already sorted descending, so for
  // each row i we skip-sample columns j > i under the upper bound
  // p_bar = w_i * w_j0 / W (w is non-increasing) and thin by p_ij / p_bar.
  ArenaBuf<Edge> edges(scope.arena());
  for (Vertex i = 0; i + 1 < n; ++i) {
    Vertex j = i + 1;
    double p_bar = std::min(1.0, w[i] * w[j] / total);
    while (j < n && p_bar > 0.0) {
      if (p_bar < 1.0) {
        const double u = std::max(rng.uniform(), 1e-300);
        const double skip = std::floor(std::log(u) / std::log1p(-p_bar));
        j += static_cast<Vertex>(std::min(skip, static_cast<double>(n)));
      }
      if (j >= n) break;
      const double p_ij = std::min(1.0, w[i] * w[j] / total);
      if (rng.uniform() < p_ij / p_bar) edges.emplace_back(i, j);
      p_bar = p_ij;  // w non-increasing: p_ij is a valid bound for later j
      ++j;
    }
  }
  return Graph(n, edges.take());
}

Graph tripartite_mu(Vertex side, double gamma, Rng& rng) {
  assert(static_cast<std::uint64_t>(side) * 3 <= std::numeric_limits<Vertex>::max());
  const double p = gamma / std::sqrt(static_cast<double>(side));
  const Vertex n = 3 * side;
  const std::uint64_t block = static_cast<std::uint64_t>(side) * side;
  ArenaScope scope;
  const std::span<std::uint64_t> scratch = skip_scratch(scope.arena(), expected_kept(block, p));
  ArenaBuf<Edge> edges(scope.arena());
  // The three cross spaces U x V1, U x V2, V1 x V2, in that order.
  using Space = std::pair<Vertex, Vertex>;  // (row offset, column offset)
  for (const auto& [row0, col0] : {Space{0, side}, Space{0, 2 * side}, Space{side, 2 * side}}) {
    skip_sample_range(0, block, p, rng, scratch, [&](IndexBatch batch) {
      append_mapped(edges, batch, [side, row0, col0](IndexBatch piece, std::span<Edge> out) {
        for (std::size_t i = 0; i < piece.size(); ++i) {
          out[i] = Edge(static_cast<Vertex>(row0 + piece[i] / side),
                        static_cast<Vertex>(col0 + piece[i] % side));
        }
      });
    });
  }
  return Graph(n, edges.take());
}

Graph embed_with_isolated(const Graph& core, Vertex total_n) {
  if (total_n < core.n()) throw std::invalid_argument("embed_with_isolated: total_n < core.n()");
  std::vector<Edge> edges(core.edges().begin(), core.edges().end());
  return Graph(total_n, std::move(edges));
}

Graph disjoint_union(const Graph& h1, const Graph& h2) {
  std::vector<Edge> edges(h1.edges().begin(), h1.edges().end());
  edges.reserve(h1.num_edges() + h2.num_edges());
  const Vertex shift = h1.n();
  for (const Edge& e : h2.edges()) edges.emplace_back(e.u + shift, e.v + shift);
  return Graph(h1.n() + h2.n(), std::move(edges));
}

Graph overlay(const Graph& h1, const Graph& h2) {
  if (h1.n() != h2.n()) throw std::invalid_argument("overlay: vertex sets differ");
  std::vector<Edge> edges(h1.edges().begin(), h1.edges().end());
  edges.insert(edges.end(), h2.edges().begin(), h2.edges().end());
  return Graph(h1.n(), std::move(edges));
}

}  // namespace tft::gen
