#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "util/rng.h"

/// \file chunked.h
/// Chunked, communication-free instance generation (KaGen discipline).
///
/// Every hard-distribution family the lower-bound sweeps run on can be
/// described as a *linear index space* — pair ranks for G(n,p), cell ranks
/// of the three side x side cross blocks for the tripartite mu
/// distribution, (hub, matching-slot) ranks for hub_matching, star/gadget
/// ranks for the Boolean-Matching reduction — plus a pure per-index rule
/// deciding which edges the index contributes. A chunk is a contiguous
/// range of that space, so player j can materialize *its own* O(m/k) edge
/// slice directly from `(spec, seed, chunk_id)` with no global graph ever
/// built and no communication: exactly the locality the paper's multiparty
/// model assumes of its players.
///
/// Chunk-count invariance (the load-bearing contract): edge randomness is
/// keyed to fixed *micro-blocks*, not to chunks. The index space is divided
/// into B blocks where B is a pure function of the spec (targeting
/// ~kTargetEdgesPerBlock expected edges each); block b is sampled from its
/// own derived stream `Rng(mix_hash(spec.signature(), seed, b))`; chunk c
/// of k covers the block range split_range(B, k, c). The union over chunks
/// therefore equals the union over blocks — an invariant of k — so the
/// k-chunk build is edge-multiset-identical (in fact sequence-identical,
/// concatenated in chunk order) to the monolithic k=1 build for ANY k.
/// tests/test_chunked.cpp and the CI baseline replay verify this.
///
/// The mu family keeps its blocks aligned to the three side^2 sub-spaces
/// (B = 3 * B1), so the k=3 chunking IS the canonical Alice (U x V1) /
/// Bob (U x V2) / Charlie (V1 x V2) split — partition = chunk, zero copies.
///
/// Purity: everything here is a pure function of (spec, seed, chunk_id,
/// num_chunks); no global state, no draws from caller streams. That extends
/// the PR 4 instance-cache determinism contract to per-chunk keys
/// (instance_cache.h gained `chunk_id`), keeping hit / rebuild / chunked /
/// monolithic builds indistinguishable.

namespace tft {

/// Generator families with a chunked decomposition.
enum class ChunkedFamily : std::uint32_t {
  kGnp = 1,           ///< G(n, p): pair ranks over [0, pair_count(n))
  kBipartiteGnp = 2,  ///< bipartite G(n/2, n-n/2, p): cell ranks
  kTripartiteMu = 3,  ///< Section 4.2.1 mu: 3 side^2 cross blocks, p = gamma/sqrt(side)
  kHubMatching = 4,   ///< Section 3.4.2: (hub, matching-slot) ranks, PRP matchings
  kBmReduction = 5,   ///< Theorem 4.16 Boolean-Matching graph: star + gadget ranks
  kEmbedGnpCore = 6,  ///< Lemma 4.17: dense G(core_n, p_core) core, rest isolated
};

/// A chunked generator instance description: with a seed, a pure recipe for
/// the whole edge multiset. `param`/`aux` are family-specific (see the
/// factories); `signature()` mixes every field, keying all derived streams.
struct ChunkedSpec {
  ChunkedFamily family = ChunkedFamily::kGnp;
  std::uint64_t n = 0;  ///< total vertices
  double param = 0.0;
  std::uint64_t aux = 0;

  [[nodiscard]] static ChunkedSpec gnp(std::uint64_t n, double p);
  [[nodiscard]] static ChunkedSpec bipartite_gnp(std::uint64_t n, double p);
  /// n = 3 * side; param = gamma.
  [[nodiscard]] static ChunkedSpec tripartite_mu(std::uint64_t side, double gamma);
  /// aux = hubs; each hub's matching over the non-hub vertices is a keyed
  /// shared permutation (evaluated pointwise, never materialized).
  [[nodiscard]] static ChunkedSpec hub_matching(std::uint64_t n, std::uint32_t hubs);
  /// n = 4 * pairs + 1; aux bit 0 = zero_case. x, the matching and w are all
  /// pure functions of (spec, seed), so Alice's stars and Bob's gadgets can
  /// be generated independently per chunk while satisfying the promise.
  [[nodiscard]] static ChunkedSpec bm_reduction(std::uint64_t pairs, bool zero_case);
  /// param = d_target, aux = bit pattern of p_core (embedding.h geometry:
  /// core_n = clamp(sqrt(n * d_target / p_core), 3, n)).
  [[nodiscard]] static ChunkedSpec embed_gnp_core(std::uint64_t n, double d_target,
                                                  double p_core);

  /// Family-derived quantities.
  [[nodiscard]] std::uint64_t mu_side() const noexcept { return n / 3; }
  [[nodiscard]] std::uint64_t bm_pairs() const noexcept { return (n - 1) / 4; }
  [[nodiscard]] bool bm_zero_case() const noexcept { return (aux & 1) != 0; }
  [[nodiscard]] std::uint64_t embed_core_n() const noexcept;

  /// Keyed identity of this spec; all per-block / per-hub / per-bit derived
  /// streams mix it in, so distinct specs never share randomness.
  [[nodiscard]] std::uint64_t signature() const noexcept;

  friend bool operator==(const ChunkedSpec&, const ChunkedSpec&) = default;
};

/// Contiguous subrange [lo, hi) of part i when [0, total) is divided into
/// `parts` near-equal parts (sizes differ by at most one; earlier parts get
/// the remainder).
struct IndexRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  [[nodiscard]] std::uint64_t size() const noexcept { return hi - lo; }
};
[[nodiscard]] constexpr IndexRange split_range(std::uint64_t total, std::uint64_t parts,
                                               std::uint64_t i) noexcept {
  const std::uint64_t base = total / parts;
  const std::uint64_t rem = total % parts;
  const std::uint64_t lo = i * base + (i < rem ? i : rem);
  return {lo, lo + base + (i < rem ? 1 : 0)};
}

/// A keyed pseudorandom permutation of [0, domain): a 4-round Feistel
/// network over the smallest even-split bit width covering the domain, with
/// cycle-walking to stay inside it. Every player evaluates the same pure
/// function of (key, x), so shared random matchings (hub_matching, the BM
/// matching M) cost O(1) per evaluated point and zero communication.
class SharedPermutation {
 public:
  SharedPermutation(std::uint64_t key, std::uint64_t domain);

  [[nodiscard]] std::uint64_t domain() const noexcept { return domain_; }
  /// The image of x (x must be < domain()).
  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const noexcept;

 private:
  std::uint64_t key_ = 0;
  std::uint64_t domain_ = 1;
  std::uint32_t half_bits_ = 1;
  std::uint64_t half_mask_ = 1;
};

/// Expected edges per micro-block the block layout targets. Blocks are the
/// unit of RNG keying *and* the finest chunk granularity: num_chunks beyond
/// the block count degrades gracefully (trailing chunks come out empty).
/// A block's skip-sampler scratch holds about this many draws, so its
/// batches stay below the pool's parallel grain (kMinChunkWork,
/// util/parallel.h) and every block is sampled inline on the calling thread.
inline constexpr std::uint64_t kTargetEdgesPerBlock = 8192;

/// Number of micro-blocks B for this spec — a pure function of the spec
/// (never of num_chunks), which is what makes chunk unions k-invariant.
/// For kTripartiteMu this is always a multiple of 3 with blocks aligned to
/// the three cross sub-spaces.
[[nodiscard]] std::uint64_t chunk_block_count(const ChunkedSpec& spec);

/// Generate chunk `chunk_id` of `num_chunks`: the edge slice of blocks
/// [split_range(B, num_chunks, chunk_id)), in block order. Pure in all
/// arguments. Throws std::invalid_argument on a malformed spec or
/// chunk_id >= num_chunks.
[[nodiscard]] std::vector<Edge> generate_chunk(const ChunkedSpec& spec, std::uint64_t seed,
                                               std::uint64_t chunk_id,
                                               std::uint64_t num_chunks);

/// The number of edges generate_chunk would return, without materializing
/// them (same index walk into a counting sink).
[[nodiscard]] std::uint64_t count_chunk_edges(const ChunkedSpec& spec, std::uint64_t seed,
                                              std::uint64_t chunk_id,
                                              std::uint64_t num_chunks);

/// One player's CSR-free input: its chunk's edge slice over the common
/// vertex set. At n = 1e8 a Graph's CSR offsets alone cost 4 bytes/vertex
/// per player; protocols that only stream their edges (core/sim_low.h) take
/// slices instead, keeping per-player memory at O(m/k) + O(1).
struct EdgeSlice {
  std::size_t player_id = 0;
  std::size_t k = 1;
  Vertex n = 0;  ///< common vertex universe [0, n)
  std::vector<Edge> edges;

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return edges.capacity() * sizeof(Edge);
  }
};

/// Byte-size customization point (instance_cache.h ADL) so per-chunk slices
/// can be cached and LRU-evicted like any other sweep payload.
[[nodiscard]] inline std::size_t approx_bytes(const EdgeSlice& s) noexcept {
  return sizeof(s) + s.memory_bytes();
}

/// A chunked instance bound to (spec, seed, num_chunks): the facade the
/// layers above consume. Nothing is materialized at construction; every
/// accessor generates at most one chunk at a time.
class ChunkedView {
 public:
  ChunkedView(ChunkedSpec spec, std::uint64_t seed, std::uint64_t num_chunks);

  [[nodiscard]] const ChunkedSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint64_t chunks() const noexcept { return chunks_; }
  [[nodiscard]] Vertex n() const noexcept { return static_cast<Vertex>(spec_.n); }

  /// The edge slice of one chunk.
  [[nodiscard]] std::vector<Edge> chunk_edges(std::uint64_t chunk_id) const {
    return generate_chunk(spec_, seed_, chunk_id, chunks_);
  }

  /// Total edges across all chunks (streamed count, O(1) memory).
  [[nodiscard]] std::uint64_t count_edges() const;

  /// Stream every edge, chunk by chunk (one chunk resident at a time).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (std::uint64_t c = 0; c < chunks_; ++c) {
      for (const Edge& e : chunk_edges(c)) fn(e);
    }
  }

  /// The full union Graph — the monolithic equivalent, built with a
  /// two-pass exact reserve (count, then fill). This is the ground-truth /
  /// referee path; sweeps that need O(m/k) memory use build_slices instead.
  [[nodiscard]] Graph build_union() const;

  /// Partition = chunk: player j's input is exactly chunk j, as a Graph
  /// (full CSR) over the common vertex set. No partition pass, no RNG, no
  /// copy of a monolithic edge list.
  [[nodiscard]] std::vector<PlayerInput> build_players() const;

  /// Partition = chunk, CSR-free: player j holds only its edge slice.
  [[nodiscard]] std::vector<EdgeSlice> build_slices() const;

 private:
  ChunkedSpec spec_;
  std::uint64_t seed_ = 0;
  std::uint64_t chunks_ = 1;
};

/// Order-invariant fingerprint of an edge multiset (sum of a keyed hash per
/// edge, commutative by construction): equal multisets hash equal under any
/// generation order or chunking. The A/B identity harness and the CI
/// baseline replay compare chunked vs monolithic builds through this.
[[nodiscard]] std::uint64_t edge_multiset_hash(std::span<const Edge> edges) noexcept;

/// Fingerprint of a full chunked build at the given chunk count (streams,
/// never concatenates).
[[nodiscard]] std::uint64_t chunked_union_hash(const ChunkedSpec& spec, std::uint64_t seed,
                                               std::uint64_t num_chunks);

}  // namespace tft
