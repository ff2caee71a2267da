#include "graph/chunked.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "graph/pair_sampling.h"
#include "util/arena.h"

namespace tft {

namespace {

// Domain-separation salts for the streams derived from a spec signature.
constexpr std::uint64_t kSpecTag = 0x43484e4bULL;      // block-rng domain
constexpr std::uint64_t kHubPermSalt = 0x48554250ULL;  // per-hub matching PRP
constexpr std::uint64_t kBmPermSalt = 0x424d504dULL;   // the BM matching M
constexpr std::uint64_t kBmXSalt = 0x424d5858ULL;      // Alice's bit vector x
constexpr std::uint64_t kMultisetSalt = 0x4d534554ULL;

void validate(const ChunkedSpec& spec) {
  if (spec.n > std::numeric_limits<Vertex>::max()) {
    throw std::invalid_argument("ChunkedSpec: n exceeds the Vertex width");
  }
  switch (spec.family) {
    case ChunkedFamily::kGnp:
    case ChunkedFamily::kBipartiteGnp:
      break;
    case ChunkedFamily::kTripartiteMu:
      if (spec.n % 3 != 0) throw std::invalid_argument("ChunkedSpec: mu needs n = 3*side");
      break;
    case ChunkedFamily::kHubMatching:
      if (spec.aux >= spec.n) throw std::invalid_argument("ChunkedSpec: hubs must be < n");
      break;
    case ChunkedFamily::kBmReduction:
      if (spec.n == 0 || (spec.n - 1) % 4 != 0) {
        throw std::invalid_argument("ChunkedSpec: BM needs n = 4*pairs + 1");
      }
      break;
    case ChunkedFamily::kEmbedGnpCore: {
      const double p_core = std::bit_cast<double>(spec.aux);
      if (!(p_core > 0.0) || p_core > 1.0) {
        throw std::invalid_argument("ChunkedSpec: bad p_core");
      }
      break;
    }
    default:
      throw std::invalid_argument("ChunkedSpec: unknown family");
  }
}

/// Micro-block count for one index space of `total` indices contributing
/// `edges_per_index` expected edges each.
std::uint64_t blocks_for(std::uint64_t total, double edges_per_index) {
  if (total == 0) return 1;
  const double expected = static_cast<double>(total) * edges_per_index;
  const auto want = static_cast<std::uint64_t>(std::ceil(
      std::max(1.0, expected / static_cast<double>(kTargetEdgesPerBlock))));
  return std::min(total, std::max<std::uint64_t>(1, want));
}

/// Sampler scratch for one micro-block, which keeps ~kTargetEdgesPerBlock
/// edges.
std::span<std::uint64_t> block_scratch(Arena& arena) {
  return skip_scratch(arena, static_cast<double>(kTargetEdgesPerBlock));
}

/// The Rng for micro-block `block` of a (spec, seed) build.
Rng block_rng(const ChunkedSpec& spec, std::uint64_t seed, std::uint64_t block) {
  return Rng(mix_hash(spec.signature(), seed, block));
}

// --- per-family block emitters (sink(Edge) per produced edge) -------------

template <typename Sink>
void emit_gnp_block(const ChunkedSpec& spec, std::uint64_t seed, std::uint64_t b,
                    std::uint64_t blocks, std::span<std::uint64_t> scratch, Sink&& sink) {
  const IndexRange r = split_range(pair_count(spec.n), blocks, b);
  Rng rng = block_rng(spec, seed, b);
  skip_sample_range(r.lo, r.hi, spec.param, rng, scratch,
                    [&](IndexBatch batch) { unrank_increasing(batch, spec.n, sink); });
}

template <typename Sink>
void emit_bipartite_block(const ChunkedSpec& spec, std::uint64_t seed, std::uint64_t b,
                          std::uint64_t blocks, std::span<std::uint64_t> scratch, Sink&& sink) {
  const std::uint64_t a = spec.n / 2;
  const std::uint64_t cols = spec.n - a;
  const IndexRange r = split_range(a * cols, blocks, b);
  Rng rng = block_rng(spec, seed, b);
  skip_sample_range(r.lo, r.hi, spec.param, rng, scratch, [&](IndexBatch batch) {
    for (const std::uint64_t idx : batch) {
      sink(Edge{static_cast<Vertex>(idx / cols), static_cast<Vertex>(a + idx % cols)});
    }
  });
}

template <typename Sink>
void emit_mu_block(const ChunkedSpec& spec, std::uint64_t seed, std::uint64_t b,
                   std::uint64_t blocks, std::span<std::uint64_t> scratch, Sink&& sink) {
  const std::uint64_t side = spec.mu_side();
  const std::uint64_t b1 = blocks / 3;
  const std::uint64_t space = b / b1;  // 0: U x V1, 1: U x V2, 2: V1 x V2
  const IndexRange r = split_range(side * side, b1, b % b1);
  const double p = spec.param / std::sqrt(static_cast<double>(side));
  Rng rng = block_rng(spec, seed, b);
  skip_sample_range(r.lo, r.hi, p, rng, scratch, [&](IndexBatch batch) {
    for (const std::uint64_t idx : batch) {
      const auto row = static_cast<Vertex>(idx / side);
      const auto col = static_cast<Vertex>(idx % side);
      const auto s = static_cast<Vertex>(side);
      switch (space) {
        case 0: sink(Edge{row, static_cast<Vertex>(s + col)}); break;
        case 1: sink(Edge{row, static_cast<Vertex>(2 * s + col)}); break;
        default: sink(Edge{static_cast<Vertex>(s + row), static_cast<Vertex>(2 * s + col)});
      }
    }
  });
}

template <typename Sink>
void emit_hub_block(const ChunkedSpec& spec, std::uint64_t seed, std::uint64_t b,
                    std::uint64_t blocks, Sink&& sink) {
  const std::uint64_t hubs = spec.aux;
  const std::uint64_t rest = spec.n - hubs;
  const std::uint64_t slots = rest / 2;  // matching slots per hub
  const IndexRange r = split_range(hubs * slots, blocks, b);
  std::uint64_t cur_hub = ~std::uint64_t{0};
  SharedPermutation perm(0, 1);
  for (std::uint64_t i = r.lo; i < r.hi; ++i) {
    const std::uint64_t h = i / slots;
    if (h != cur_hub) {
      cur_hub = h;
      perm = SharedPermutation(mix_hash(spec.signature() ^ kHubPermSalt, seed, h), rest);
    }
    const std::uint64_t t = i % slots;
    const auto x = static_cast<Vertex>(hubs + perm(2 * t));
    const auto y = static_cast<Vertex>(hubs + perm(2 * t + 1));
    const auto hv = static_cast<Vertex>(h);
    sink(Edge{hv, x});
    sink(Edge{hv, y});
    sink(Edge{x, y});
  }
}

template <typename Sink>
void emit_bm_block(const ChunkedSpec& spec, std::uint64_t seed, std::uint64_t b,
                   std::uint64_t blocks, Sink&& sink) {
  const std::uint64_t pairs = spec.bm_pairs();
  const std::uint64_t two_p = 2 * pairs;
  const IndexRange r = split_range(3 * pairs, blocks, b);
  const auto x_bit = [&](std::uint64_t i) {
    return static_cast<std::uint32_t>(mix_hash(spec.signature() ^ kBmXSalt, seed, i) & 1);
  };
  const auto bm_v = [](std::uint64_t i, std::uint32_t bit) {
    return static_cast<Vertex>(1 + 2 * i + bit);
  };
  const SharedPermutation perm(mix_hash(spec.signature() ^ kBmPermSalt, seed, 0), two_p);
  for (std::uint64_t idx = r.lo; idx < r.hi; ++idx) {
    if (idx < two_p) {
      // Alice: the star edge {u, (i, x_i)}.
      sink(Edge{Vertex{0}, bm_v(idx, x_bit(idx))});
    } else {
      // Bob: gadget of matching edge j = {perm(2j), perm(2j+1)}, parallel
      // rungs when w_j = 0, crossed when w_j = 1. w is chosen so that
      // Mx ⊕ w is all-zeros (far case) or all-ones (triangle-free case).
      const std::uint64_t j = idx - two_p;
      const std::uint64_t j1 = perm(2 * j);
      const std::uint64_t j2 = perm(2 * j + 1);
      const std::uint32_t mx = x_bit(j1) ^ x_bit(j2);
      const std::uint32_t w = spec.bm_zero_case() ? mx : (mx ^ 1);
      sink(Edge{bm_v(j1, 0), bm_v(j2, w)});
      sink(Edge{bm_v(j1, 1), bm_v(j2, w ^ 1)});
    }
  }
}

template <typename Sink>
void emit_embed_block(const ChunkedSpec& spec, std::uint64_t seed, std::uint64_t b,
                      std::uint64_t blocks, std::span<std::uint64_t> scratch, Sink&& sink) {
  const std::uint64_t core_n = spec.embed_core_n();
  const double p_core = std::bit_cast<double>(spec.aux);
  const IndexRange r = split_range(pair_count(core_n), blocks, b);
  Rng rng = block_rng(spec, seed, b);
  // Vertices [core_n, n) stay isolated.
  skip_sample_range(r.lo, r.hi, p_core, rng, scratch,
                    [&](IndexBatch batch) { unrank_increasing(batch, core_n, sink); });
}

template <typename Sink>
void visit_block(const ChunkedSpec& spec, std::uint64_t seed, std::uint64_t b,
                 std::uint64_t blocks, std::span<std::uint64_t> scratch, Sink&& sink) {
  switch (spec.family) {
    case ChunkedFamily::kGnp: emit_gnp_block(spec, seed, b, blocks, scratch, sink); break;
    case ChunkedFamily::kBipartiteGnp:
      emit_bipartite_block(spec, seed, b, blocks, scratch, sink);
      break;
    case ChunkedFamily::kTripartiteMu: emit_mu_block(spec, seed, b, blocks, scratch, sink); break;
    case ChunkedFamily::kHubMatching: emit_hub_block(spec, seed, b, blocks, sink); break;
    case ChunkedFamily::kBmReduction: emit_bm_block(spec, seed, b, blocks, sink); break;
    case ChunkedFamily::kEmbedGnpCore:
      emit_embed_block(spec, seed, b, blocks, scratch, sink);
      break;
  }
}

/// Feeds every edge of one chunk to sink. `scratch` (block_scratch) serves
/// every block's sampler.
template <typename Sink>
void visit_chunk(const ChunkedSpec& spec, std::uint64_t seed, std::uint64_t chunk_id,
                 std::uint64_t num_chunks, std::span<std::uint64_t> scratch, Sink&& sink) {
  validate(spec);
  if (num_chunks == 0) throw std::invalid_argument("visit_chunk: num_chunks must be >= 1");
  if (chunk_id >= num_chunks) throw std::invalid_argument("visit_chunk: chunk_id out of range");
  const std::uint64_t blocks = chunk_block_count(spec);
  const IndexRange br = split_range(blocks, num_chunks, chunk_id);
  for (std::uint64_t b = br.lo; b < br.hi; ++b) visit_block(spec, seed, b, blocks, scratch, sink);
}

}  // namespace

ChunkedSpec ChunkedSpec::gnp(std::uint64_t n, double p) {
  return {ChunkedFamily::kGnp, n, p, 0};
}

ChunkedSpec ChunkedSpec::bipartite_gnp(std::uint64_t n, double p) {
  return {ChunkedFamily::kBipartiteGnp, n, p, 0};
}

ChunkedSpec ChunkedSpec::tripartite_mu(std::uint64_t side, double gamma) {
  return {ChunkedFamily::kTripartiteMu, 3 * side, gamma, 0};
}

ChunkedSpec ChunkedSpec::hub_matching(std::uint64_t n, std::uint32_t hubs) {
  return {ChunkedFamily::kHubMatching, n, 0.0, hubs};
}

ChunkedSpec ChunkedSpec::bm_reduction(std::uint64_t pairs, bool zero_case) {
  return {ChunkedFamily::kBmReduction, 4 * pairs + 1, 0.0, zero_case ? 1u : 0u};
}

ChunkedSpec ChunkedSpec::embed_gnp_core(std::uint64_t n, double d_target, double p_core) {
  return {ChunkedFamily::kEmbedGnpCore, n, d_target, std::bit_cast<std::uint64_t>(p_core)};
}

std::uint64_t ChunkedSpec::embed_core_n() const noexcept {
  // Same geometry as embed_dense_core (lower_bounds/embedding.cpp):
  // overall average degree = core_n^2 p / n  =>  core_n = sqrt(n d / p).
  const double p_core = std::bit_cast<double>(aux);
  const double np = std::sqrt(static_cast<double>(n) * param / p_core);
  return static_cast<std::uint64_t>(std::clamp(np, 3.0, static_cast<double>(n)));
}

std::uint64_t ChunkedSpec::signature() const noexcept {
  return mix_hash(mix_hash(kSpecTag, static_cast<std::uint64_t>(family), n),
                  std::bit_cast<std::uint64_t>(param), aux);
}

SharedPermutation::SharedPermutation(std::uint64_t key, std::uint64_t domain)
    : key_(key), domain_(domain) {
  if (domain == 0) throw std::invalid_argument("SharedPermutation: empty domain");
  const auto bits = static_cast<std::uint32_t>(std::max<int>(1, std::bit_width(domain - 1)));
  half_bits_ = std::max(1u, (bits + 1) / 2);
  half_mask_ = (std::uint64_t{1} << half_bits_) - 1;
}

std::uint64_t SharedPermutation::operator()(std::uint64_t x) const noexcept {
  assert(x < domain_);
  // Cycle-walk: the Feistel network permutes [0, 2^(2*half_bits)), which
  // covers at most 4x the domain, so the expected walk length is < 4.
  std::uint64_t y = x;
  do {
    std::uint64_t l = y >> half_bits_;
    std::uint64_t r = y & half_mask_;
    for (std::uint64_t round = 0; round < 4; ++round) {
      const std::uint64_t f = mix_hash(key_, round, r) & half_mask_;
      const std::uint64_t nl = r;
      r = l ^ f;
      l = nl;
    }
    y = (l << half_bits_) | r;
  } while (y >= domain_);
  return y;
}

std::uint64_t chunk_block_count(const ChunkedSpec& spec) {
  validate(spec);
  switch (spec.family) {
    case ChunkedFamily::kGnp:
      return blocks_for(pair_count(spec.n), std::clamp(spec.param, 0.0, 1.0));
    case ChunkedFamily::kBipartiteGnp: {
      const std::uint64_t a = spec.n / 2;
      return blocks_for(a * (spec.n - a), std::clamp(spec.param, 0.0, 1.0));
    }
    case ChunkedFamily::kTripartiteMu: {
      const std::uint64_t side = spec.mu_side();
      const double p = side > 0 ? spec.param / std::sqrt(static_cast<double>(side)) : 0.0;
      // Blocks never straddle the three side^2 cross spaces, so a k=3
      // chunking is exactly the Alice/Bob/Charlie partition.
      return 3 * blocks_for(side * side, std::clamp(p, 0.0, 1.0));
    }
    case ChunkedFamily::kHubMatching:
      return blocks_for(spec.aux * ((spec.n - spec.aux) / 2), 3.0);
    case ChunkedFamily::kBmReduction:
      return blocks_for(3 * spec.bm_pairs(), 4.0 / 3.0);
    case ChunkedFamily::kEmbedGnpCore:
      return blocks_for(pair_count(spec.embed_core_n()),
                        std::clamp(std::bit_cast<double>(spec.aux), 0.0, 1.0));
  }
  return 1;
}

std::vector<Edge> generate_chunk(const ChunkedSpec& spec, std::uint64_t seed,
                                 std::uint64_t chunk_id, std::uint64_t num_chunks) {
  // Stage through the thread arena: the slice size is unknown up front, so
  // the doubling growth happens inside reused arena blocks and the returned
  // vector is allocated once at its exact final size (players hold O(m/k)
  // slices for a long time — slack capacity would be charged forever).
  ArenaScope scope;
  const std::span<std::uint64_t> scratch = block_scratch(scope.arena());
  ArenaBuf<Edge> edges(scope.arena());
  visit_chunk(spec, seed, chunk_id, num_chunks, scratch,
              [&](const Edge& e) { edges.push_back(e); });
  return edges.take();
}

std::uint64_t count_chunk_edges(const ChunkedSpec& spec, std::uint64_t seed,
                                std::uint64_t chunk_id, std::uint64_t num_chunks) {
  ArenaScope scope;
  std::uint64_t count = 0;
  visit_chunk(spec, seed, chunk_id, num_chunks, block_scratch(scope.arena()),
              [&](const Edge&) { ++count; });
  return count;
}

ChunkedView::ChunkedView(ChunkedSpec spec, std::uint64_t seed, std::uint64_t num_chunks)
    : spec_(spec), seed_(seed), chunks_(num_chunks) {
  validate(spec_);
  if (chunks_ == 0) throw std::invalid_argument("ChunkedView: num_chunks must be >= 1");
}

std::uint64_t ChunkedView::count_edges() const {
  std::uint64_t total = 0;
  for (std::uint64_t c = 0; c < chunks_; ++c) {
    total += count_chunk_edges(spec_, seed_, c, chunks_);
  }
  return total;
}

Graph ChunkedView::build_union() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(count_edges()));
  ArenaScope scope;
  const std::span<std::uint64_t> scratch = block_scratch(scope.arena());
  for (std::uint64_t c = 0; c < chunks_; ++c) {
    visit_chunk(spec_, seed_, c, chunks_, scratch, [&](const Edge& e) { edges.push_back(e); });
  }
  return Graph(n(), std::move(edges));
}

std::vector<PlayerInput> ChunkedView::build_players() const {
  std::vector<PlayerInput> players;
  players.reserve(static_cast<std::size_t>(chunks_));
  for (std::uint64_t c = 0; c < chunks_; ++c) {
    players.push_back(PlayerInput{static_cast<std::size_t>(c),
                                  static_cast<std::size_t>(chunks_),
                                  Graph(n(), chunk_edges(c))});
  }
  return players;
}

std::vector<EdgeSlice> ChunkedView::build_slices() const {
  std::vector<EdgeSlice> slices;
  slices.reserve(static_cast<std::size_t>(chunks_));
  for (std::uint64_t c = 0; c < chunks_; ++c) {
    slices.push_back(EdgeSlice{static_cast<std::size_t>(c), static_cast<std::size_t>(chunks_),
                               n(), chunk_edges(c)});
  }
  return slices;
}

std::uint64_t edge_multiset_hash(std::span<const Edge> edges) noexcept {
  std::uint64_t h = 0;
  for (const Edge& e : edges) h += fmix64(e.key() ^ kMultisetSalt);
  return h;
}

std::uint64_t chunked_union_hash(const ChunkedSpec& spec, std::uint64_t seed,
                                 std::uint64_t num_chunks) {
  ArenaScope scope;
  const std::span<std::uint64_t> scratch = block_scratch(scope.arena());
  std::uint64_t h = 0;
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    visit_chunk(spec, seed, c, num_chunks, scratch,
                [&](const Edge& e) { h += fmix64(e.key() ^ kMultisetSalt); });
  }
  return h;
}

}  // namespace tft
