#include "graph/partition.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_set>

#include "util/arena.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace tft {

namespace {

/// Row ranges union_graph merges independently: a constant, so the cuts do
/// not depend on the thread count.
constexpr std::size_t kUnionCuts = 64;

}  // namespace

std::vector<PlayerInput> partition_edges(const Graph& g, std::size_t k,
                                         const PartitionOptions& opts, Rng& rng) {
  if (k == 0) throw std::invalid_argument("partition_edges: k must be >= 1");
  if (opts.dup_factor < 1.0) throw std::invalid_argument("partition_edges: dup_factor < 1");
  if (opts.heavy_fraction < 0.0 || opts.heavy_fraction >= 1.0) {
    throw std::invalid_argument("partition_edges: heavy_fraction out of range");
  }

  std::vector<std::vector<Edge>> per_player(k);
  const double extra_p =
      (k > 1) ? (opts.dup_factor - 1.0) / static_cast<double>(k - 1) : 0.0;

  for (const Edge& e : g.edges()) {
    std::size_t owner;
    if (opts.heavy_fraction > 0.0 && rng.bernoulli(opts.heavy_fraction)) {
      owner = 0;
    } else if (opts.by_vertex) {
      owner = static_cast<std::size_t>(mix_hash(0x9a1fb7u, e.u) % k);
    } else {
      owner = static_cast<std::size_t>(rng.below(k));
    }
    per_player[owner].push_back(e);
    if (extra_p > 0.0) {
      for (std::size_t j = 0; j < k; ++j) {
        if (j != owner && rng.bernoulli(extra_p)) per_player[j].push_back(e);
      }
    }
  }

  // The draws above stay serial; the k Graph builds are independent.
  std::vector<PlayerInput> players(k);
  parallel_for(
      k,
      [&](std::size_t j) {
        players[j] = PlayerInput{j, k, Graph(g.n(), std::move(per_player[j]))};
      },
      grain_for_work(k, g.num_edges()));
  return players;
}

std::vector<PlayerInput> partition_random(const Graph& g, std::size_t k, Rng& rng) {
  return partition_edges(g, k, PartitionOptions{}, rng);
}

std::vector<PlayerInput> partition_duplicated(const Graph& g, std::size_t k, double dup_factor,
                                              Rng& rng) {
  PartitionOptions opts;
  opts.dup_factor = dup_factor;
  return partition_edges(g, k, opts, rng);
}

std::vector<PlayerInput> players_from_slices(Vertex n, std::vector<std::vector<Edge>> slices) {
  if (slices.empty()) throw std::invalid_argument("players_from_slices: need >= 1 slice");
  std::vector<PlayerInput> players;
  players.reserve(slices.size());
  for (std::size_t j = 0; j < slices.size(); ++j) {
    players.push_back(PlayerInput{j, slices.size(), Graph(n, std::move(slices[j]))});
  }
  return players;
}

Graph union_graph(std::span<const PlayerInput> players) {
  if (players.empty()) return Graph();
  const std::size_t k = players.size();
  const std::uint64_t n = players.front().n();
  // cut[c * k + j]: where player j's edges reach the rows of cut c, i.e. its
  // first edge with u >= n * c / kUnionCuts. Cut kUnionCuts is the end of
  // the list, so an edge past n still reaches Graph's range check.
  std::vector<std::size_t> cut((kUnionCuts + 1) * k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::span<const Edge> edges = players[j].local.edges();
    for (std::size_t c = 0; c < kUnionCuts; ++c) {
      const std::uint64_t row = n * c / kUnionCuts;
      cut[c * k + j] = static_cast<std::size_t>(
          std::partition_point(edges.begin(), edges.end(),
                               [row](const Edge& e) { return e.u < row; }) -
          edges.begin());
    }
    cut[kUnionCuts * k + j] = edges.size();
  }
  const auto slice = [&](std::size_t c, std::size_t j) {
    return players[j].local.edges().subspan(cut[c * k + j],
                                            cut[(c + 1) * k + j] - cut[c * k + j]);
  };
  // out[c]: where cut c's merged rows start in the union.
  std::vector<std::size_t> out(kUnionCuts + 1, 0);
  for (std::size_t c = 0; c < kUnionCuts; ++c) {
    out[c + 1] = out[c];
    for (std::size_t j = 0; j < k; ++j) out[c + 1] += slice(c, j).size();
  }
  std::vector<Edge> all(out[kUnionCuts]);
  parallel_for(
      kUnionCuts,
      [&](std::size_t c) {
        Edge* const dst = all.data() + out[c];
        if (k == 1) {
          std::ranges::copy(slice(c, 0), dst);
          return;
        }
        const std::size_t len = out[c + 1] - out[c];
        if (len == 0) return;
        // Merge the cut's k sorted slices pairwise, level by level, until one
        // run is left: O(len log k). Level 0 reads the slices; the levels
        // then alternate between the union and a scratch copy, starting on
        // the side that makes the last one land in the union.
        ArenaScope scope;
        Edge* const tmp = scope.arena().alloc<Edge>(len).data();
        const std::span<std::size_t> bounds = scope.arena().alloc<std::size_t>(k / 2 + 2);
        const bool odd_levels = std::bit_width(k - 1) % 2 == 1;
        Edge* from = odd_levels ? tmp : dst;
        Edge* to = odd_levels ? dst : tmp;
        std::size_t runs = 0;
        std::size_t pos = 0;
        for (std::size_t j = 0; j < k; j += 2, ++runs) {
          const std::span<const Edge> a = slice(c, j);
          const std::span<const Edge> b = j + 1 < k ? slice(c, j + 1) : std::span<const Edge>();
          std::merge(a.begin(), a.end(), b.begin(), b.end(), to + pos);
          bounds[runs] = pos;
          pos += a.size() + b.size();
        }
        bounds[runs] = pos;
        while (runs > 1) {
          std::swap(from, to);
          std::size_t merged = 0;
          for (std::size_t r = 0; r < runs; r += 2, ++merged) {
            const std::size_t lo = bounds[r];
            const std::size_t mid = bounds[std::min(r + 1, runs)];
            const std::size_t hi = bounds[std::min(r + 2, runs)];
            std::merge(from + lo, from + mid, from + mid, from + hi, to + lo);
            bounds[merged] = lo;
          }
          bounds[merged] = bounds[runs];
          runs = merged;
        }
      },
      grain_for_work(kUnionCuts, all.size()));
  // Non-decreasing: Graph's sorted path drops the duplicates overlapping
  // (duplicated) inputs leave, and builds the CSR.
  return Graph(static_cast<Vertex>(n), std::move(all));
}

bool is_duplication_free(const std::vector<PlayerInput>& players) {
  std::unordered_set<std::uint64_t> seen;
  for (const auto& p : players) {
    for (const Edge& e : p.local.edges()) {
      if (!seen.insert(e.key()).second) return false;
    }
  }
  return true;
}

}  // namespace tft
