// The instance-build path: the batched skip sampler, the generators and the
// chunked family on top of it, the partition's parallel player build and the
// merged union. Each is checked against an in-test serial reference or a
// pinned stream, at 1 and at 4 worker threads: the parallel steps must not
// move an output byte or an Rng draw.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/chunked.h"
#include "graph/generators.h"
#include "graph/pair_sampling.h"
#include "graph/partition.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace tft {
namespace {

/// Runs fn under a pool of `threads` workers (0: all hardware threads),
/// restoring the previous default afterwards.
template <typename Fn>
void with_threads(int threads, Fn&& fn) {
  const int prev = default_threads();
  set_default_threads(threads);
  fn();
  set_default_threads(prev);
}

/// The one-gap-per-draw skip sampler the batched one must reproduce.
std::vector<std::uint64_t> serial_skip_sample(std::uint64_t lo, std::uint64_t hi, double p,
                                              Rng& rng) {
  std::vector<std::uint64_t> out;
  if (p <= 0.0 || hi <= lo) return out;
  if (p >= 1.0) {
    for (std::uint64_t i = lo; i < hi; ++i) out.push_back(i);
    return out;
  }
  const double log1mp = std::log1p(-p);
  double cursor = static_cast<double>(lo) - 1.0;
  for (;;) {
    const double u = std::max(rng.uniform(), 1e-300);
    cursor += 1.0 + std::floor(std::log(u) / log1mp);
    if (cursor >= static_cast<double>(hi)) return out;
    out.push_back(static_cast<std::uint64_t>(cursor));
  }
}

struct SampleCase {
  std::uint64_t lo;
  std::uint64_t hi;
  double p;
};

/// Samples one case with the batched sampler over a scratch of
/// `scratch_size` words and with the serial reference, from the same seed,
/// and compares the indices, the batch shapes and the next draw.
void expect_sampler_matches(const SampleCase& c, std::size_t scratch_size, std::uint64_t seed) {
  Rng ref_rng(seed);
  const std::vector<std::uint64_t> want = serial_skip_sample(c.lo, c.hi, c.p, ref_rng);
  Rng rng(seed);
  std::vector<std::uint64_t> scratch(scratch_size);
  std::vector<std::uint64_t> got;
  skip_sample_range(c.lo, c.hi, c.p, rng, scratch, [&](IndexBatch batch) {
    ASSERT_FALSE(batch.empty());
    ASSERT_LE(batch.size(), scratch_size);
    got.insert(got.end(), batch.begin(), batch.end());
  });
  const auto label = ::testing::Message() << "lo=" << c.lo << " hi=" << c.hi << " p=" << c.p
                                          << " scratch=" << scratch_size;
  ASSERT_EQ(got.size(), want.size()) << label;
  EXPECT_EQ(got, want) << label;
  EXPECT_EQ(rng(), ref_rng()) << label;
}

TEST(PairSampling, BatchedSamplerMatchesSerialReference) {
  std::vector<SampleCase> cases;
  for (const double p : {0.0, 1e-9, 1e-4, 0.01, 0.5, 1.0 - 1e-12, 1.0}) {
    for (const std::uint64_t lo : {std::uint64_t{0}, std::uint64_t{1234567}}) {
      for (const std::uint64_t span : {0ull, 1ull, 10ull, 10000ull, 600000ull}) {
        cases.push_back({lo, lo + span, p});
      }
    }
  }
  // A sparse range past 2^40 that still keeps ~4000 indices.
  cases.push_back({std::uint64_t{1} << 40, (std::uint64_t{1} << 40) + 4'000'000'000'000ull, 1e-9});
  cases.push_back({10, 5, 0.5});  // hi < lo

  // Ranges whose kept count is one below, at and one above a full batch.
  Rng probe(77);
  const std::uint64_t lo = 999;
  const std::vector<std::uint64_t> kept = serial_skip_sample(lo, lo + 3 * kSkipBatch, 0.5, probe);
  ASSERT_GT(kept.size(), kSkipBatch + 1);
  for (const std::size_t count : {kSkipBatch - 1, kSkipBatch, kSkipBatch + 1}) {
    cases.push_back({lo, kept[count - 1] + 1, 0.5});
  }

  for (const int threads : {1, 4}) {
    with_threads(threads, [&] {
      std::uint64_t seed = 0;
      for (const SampleCase& c : cases) {
        ++seed;
        expect_sampler_matches(c, kSkipBatch, seed);
        // Small scratches put many batch edges, and many stops, in every
        // range.
        if (static_cast<double>(c.hi - std::min(c.hi, c.lo)) * c.p < 2e5) {
          expect_sampler_matches(c, 1, seed);
          expect_sampler_matches(c, 7, seed);
        }
      }
    });
  }
}

TEST(PairSampling, IncreasingUnrankMatchesUnrankPair) {
  // Dense runs, runs that jump rows, the last pairs of the space and a
  // space past 2^32 pairs.
  for (const std::uint64_t n : {2ull, 3ull, 17ull, 1000ull, 100000ull}) {
    const std::uint64_t total = pair_count(n);
    Rng rng(n);
    for (const double p : {1.0, 0.3, 0.001}) {
      std::vector<std::uint64_t> batch;
      for (std::uint64_t i = total > 5000 ? total - 5000 : 0; i < total; ++i) {
        if (rng.uniform() < p) batch.push_back(i);
      }
      for (std::uint64_t i = 0; i < 20000 && batch.size() < 30000; ++i) {
        batch.push_back(rng.below(total));
      }
      std::sort(batch.begin(), batch.end());
      std::vector<Edge> got;
      unrank_increasing(batch, n, [&](Edge e) { got.push_back(e); });
      ASSERT_EQ(got.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto [u, v] = unrank_pair(batch[i], n);
        ASSERT_EQ(got[i], Edge(u, v)) << "n=" << n << " idx=" << batch[i];
      }
    }
  }
}

/// FNV-1a over (u, v) of every edge, in order.
std::uint64_t edge_hash(std::span<const Edge> edges) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Edge& e : edges) {
    for (const Vertex x : {e.u, e.v}) h = (h ^ x) * 0x100000001b3ULL;
  }
  return h;
}

struct StreamPin {
  const char* name;
  std::function<Graph(Rng&)> make;
  std::size_t edges;
  std::uint64_t hash;
  std::size_t memory_bytes;
  std::uint64_t next_draw;  // rng.below(2^30) right after the generator
};

struct ChunkPin {
  const char* name;
  ChunkedSpec spec;
  std::uint64_t chunk;
  std::uint64_t chunks;
  std::size_t edges;
  std::uint64_t hash;
  std::size_t bytes;  // capacity * sizeof(Edge)
};

TEST(Gnp, MatchesPinnedStreams) {
  // Values captured from the one-gap-per-draw sampler. Sizes run from empty
  // to several full sampler batches (gnp_3000, bipartite_5000 and mu_3000
  // keep more than kSkipBatch indices), so batch edges, the parallel gap
  // and unranking passes and the Rng reset at the stop all show up here.
  const std::vector<StreamPin> pins = {
      {"gnp_0", [](Rng& r) { return gen::gnp(0, 0.5, r); },
       0, 14695981039346656037ULL, 4, 971608622},
      {"gnp_1", [](Rng& r) { return gen::gnp(1, 0.5, r); },
       0, 14695981039346656037ULL, 8, 639717204},
      {"gnp_2000_0.01", [](Rng& r) { return gen::gnp(2000, 0.01, r); },
       19792, 16769690143892374648ULL, 324676, 36951035},
      {"gnp_3000_0.12", [](Rng& r) { return gen::gnp(3000, 0.12, r); },
       541022, 10220428224967540348ULL, 8668356, 887904259},
      {"gnp_700_1", [](Rng& r) { return gen::gnp(700, 1.0, r); },
       244650, 12117111107847669461ULL, 3917204, 1053118268},
      {"gnp_100000_1e-5", [](Rng& r) { return gen::gnp(100000, 1e-5, r); },
       50284, 338611823702870440ULL, 1204548, 732397283},
      {"bipartite_gnp_301_0.3", [](Rng& r) { return gen::bipartite_gnp(301, 0.3, r); },
       6820, 3069901764317794045ULL, 110328, 437222381},
      {"bipartite_gnp_5000_0.05", [](Rng& r) { return gen::bipartite_gnp(5000, 0.05, r); },
       312123, 17080984105161101063ULL, 5013972, 718029276},
      {"tripartite_mu_600_0.9", [](Rng& r) { return gen::tripartite_mu(600, 0.9, r); },
       39597, 14784685087877373316ULL, 640756, 1021618231},
      {"tripartite_mu_3000_1.5", [](Rng& r) { return gen::tripartite_mu(3000, 1.5, r); },
       739731, 2716554573425560502ULL, 11871700, 908054782},
      {"tripartite_mu_1_0.9", [](Rng& r) { return gen::tripartite_mu(1, 0.9, r); },
       3, 13395543467514456391ULL, 64, 905698985},
  };
  // The chunked family samples per-block streams and hands back no Rng, so
  // its pins are the slice and its exact-size allocation.
  const std::vector<ChunkPin> chunk_pins = {
      {"chunked_gnp_20000", ChunkedSpec::gnp(20000, 0.002), 1, 3,
       130937, 7637080667959911338ULL, 1047496},
      {"chunked_bipartite_4000", ChunkedSpec::bipartite_gnp(4000, 0.01), 0, 2,
       23916, 6149140242632236069ULL, 191328},
      {"chunked_mu_500", ChunkedSpec::tripartite_mu(500, 0.9), 2, 3,
       10051, 6232819407208983950ULL, 80408},
      {"chunked_embed_5000", ChunkedSpec::embed_gnp_core(5000, 4.0, 0.05), 0, 1,
       10020, 2384604370312076658ULL, 80160},
  };
  for (const int threads : {1, 4, 0}) {
    with_threads(threads, [&] {
      std::uint64_t seed = 301;
      for (const StreamPin& pin : pins) {
        Rng rng(seed++);
        const Graph g = pin.make(rng);
        EXPECT_EQ(g.num_edges(), pin.edges) << pin.name << " threads=" << threads;
        EXPECT_EQ(edge_hash(g.edges()), pin.hash) << pin.name << " threads=" << threads;
        EXPECT_EQ(g.memory_bytes(), pin.memory_bytes) << pin.name << " threads=" << threads;
        EXPECT_EQ(rng.below(std::uint64_t{1} << 30), pin.next_draw)
            << pin.name << " threads=" << threads;
      }
      for (const ChunkPin& pin : chunk_pins) {
        const std::vector<Edge> e = generate_chunk(pin.spec, seed++, pin.chunk, pin.chunks);
        EXPECT_EQ(e.size(), pin.edges) << pin.name << " threads=" << threads;
        EXPECT_EQ(edge_hash(e), pin.hash) << pin.name << " threads=" << threads;
        EXPECT_EQ(e.capacity() * sizeof(Edge), pin.bytes) << pin.name << " threads=" << threads;
      }
    });
  }
}

/// The serial partition the parallel one must reproduce: the same draw
/// loop, then the k Graph builds one after another.
std::vector<PlayerInput> serial_partition(const Graph& g, std::size_t k,
                                          const PartitionOptions& opts, Rng& rng) {
  std::vector<std::vector<Edge>> per_player(k);
  const double extra_p = (k > 1) ? (opts.dup_factor - 1.0) / static_cast<double>(k - 1) : 0.0;
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
  std::vector<PlayerInput> players;
  for (std::size_t j = 0; j < k; ++j) {
    players.push_back(PlayerInput{j, k, Graph(g.n(), std::move(per_player[j]))});
  }
  return players;
}

TEST(Partition, ParallelBuildMatchesReference) {
  std::vector<PartitionOptions> variants(5);
  variants[1].dup_factor = 2.5;
  variants[2].heavy_fraction = 0.3;
  variants[3].by_vertex = true;
  variants[4].by_vertex = true;
  variants[4].heavy_fraction = 0.2;
  variants[4].dup_factor = 1.5;
  Rng graph_rng(5);
  // 160k edges: several kMinChunkWork, so the player builds fan out at
  // every k > 1; the small graph stays inline.
  const std::vector<Graph> graphs = {gen::gnp(4000, 0.02, graph_rng),
                                     gen::gnp(200, 0.05, graph_rng)};
  ASSERT_GT(graphs[0].num_edges(), 4 * kMinChunkWork);
  for (const int threads : {1, 4}) {
    with_threads(threads, [&] {
      std::uint64_t seed = 900;
      for (const Graph& g : graphs) {
        for (const std::size_t k : {1, 3, 4, 7}) {
          for (std::size_t v = 0; v < variants.size(); ++v) {
            Rng ref_rng(seed);
            Rng rng(seed++);
            const auto want = serial_partition(g, k, variants[v], ref_rng);
            const auto got = partition_edges(g, k, variants[v], rng);
            const auto label = ::testing::Message()
                               << "m=" << g.num_edges() << " k=" << k << " variant=" << v
                               << " threads=" << threads;
            ASSERT_EQ(got.size(), k) << label;
            for (std::size_t j = 0; j < k; ++j) {
              EXPECT_EQ(got[j].player_id, j) << label;
              EXPECT_EQ(got[j].k, k) << label;
              EXPECT_EQ(got[j].n(), g.n()) << label;
              ASSERT_TRUE(std::ranges::equal(got[j].local.edges(), want[j].local.edges()))
                  << label << " player=" << j;
              EXPECT_EQ(got[j].local.memory_bytes(), want[j].local.memory_bytes())
                  << label << " player=" << j;
            }
            EXPECT_EQ(rng(), ref_rng()) << label;
          }
        }
      }
    });
  }
}

/// Checks union_graph against the concatenate-and-build reference: same
/// vertex count, same edge list, same rows.
void expect_union_matches(std::span<const PlayerInput> players, const char* name) {
  std::vector<Edge> all;
  for (const PlayerInput& p : players) {
    all.insert(all.end(), p.local.edges().begin(), p.local.edges().end());
  }
  const Graph want(players.empty() ? 0 : players.front().n(), std::move(all));
  const Graph got = union_graph(players);
  ASSERT_EQ(got.n(), want.n()) << name;
  ASSERT_TRUE(std::ranges::equal(got.edges(), want.edges())) << name;
  for (Vertex v = 0; v < want.n(); ++v) {
    ASSERT_TRUE(std::ranges::equal(got.neighbors(v), want.neighbors(v))) << name << " v=" << v;
  }
}

TEST(Partition, UnionMergesSortedSlices) {
  Rng rng(21);
  const Graph big = gen::gnp(3000, 0.012, rng);
  const Graph small = gen::gnp(300, 0.05, rng);
  const Graph hubs = gen::hub_matching(2000, 6, rng);
  ASSERT_GT(big.num_edges(), kMinChunkWork);
  const auto player = [](std::size_t j, std::size_t k, Graph g) {
    return PlayerInput{j, k, std::move(g)};
  };
  for (const int threads : {1, 4}) {
    with_threads(threads, [&] {
      // Overlapping slices: duplicated partitions, merged past and below
      // the parallel threshold; the skewed hub graph fills the low cuts.
      expect_union_matches(partition_duplicated(big, 5, 2.5, rng), "dup big");
      expect_union_matches(partition_duplicated(small, 3, 3.0, rng), "dup small");
      expect_union_matches(partition_duplicated(hubs, 9, 1.7, rng), "dup hubs");
      expect_union_matches(partition_random(big, 4, rng), "random big");
      expect_union_matches(partition_random(hubs, 64, rng), "random hubs k=64");
      // Every player holding the whole graph.
      expect_union_matches(
          std::vector<PlayerInput>{player(0, 3, big), player(1, 3, big), player(2, 3, big)},
          "identical players");
      // Empty players around a full one, and all players empty.
      expect_union_matches(std::vector<PlayerInput>{player(0, 3, Graph(small.n(), {})),
                                                    player(1, 3, small),
                                                    player(2, 3, Graph(small.n(), {}))},
                           "empty players");
      expect_union_matches(std::vector<PlayerInput>{player(0, 2, Graph(50, {})),
                                                    player(1, 2, Graph(50, {}))},
                           "all empty");
      // One player.
      expect_union_matches(std::vector<PlayerInput>{player(0, 1, big)}, "one player");
      // Degenerate vertex sets.
      expect_union_matches(std::vector<PlayerInput>{player(0, 2, Graph(1, {})),
                                                    player(1, 2, Graph(1, {}))},
                           "n=1");
      expect_union_matches(std::vector<PlayerInput>{player(0, 1, Graph())}, "n=0");
      expect_union_matches(std::vector<PlayerInput>{player(0, 2, Graph(2, {{0, 1}})),
                                                    player(1, 2, Graph(2, {{0, 1}}))},
                           "n=2");
    });
  }
  EXPECT_EQ(union_graph(std::vector<PlayerInput>{}).n(), 0u);
  // A player on a larger vertex set than the first is a caller error that
  // the Graph range check reports, as the concatenating build did.
  EXPECT_THROW((void)union_graph(std::vector<PlayerInput>{player(0, 2, Graph(3, {{0, 1}})),
                                                          player(1, 2, Graph(9, {{5, 8}}))}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tft
