#include "graph/triangles.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "graph/intersect.h"
#include "util/arena.h"
#include "util/parallel.h"

namespace tft {

namespace {

using kernel::Ops;
using kernel::Variant;

/// Out-neighbors of each vertex under degree orientation (edge points from
/// lower to higher (degree, id) rank), as a flat CSR: one offsets array and
/// one column array, no per-vertex vectors. Rows inherit the id-sorted
/// order of the graph's own CSR rows, so no comparison sort is needed.
/// Storage lives in the caller's ArenaScope: repeated kernel calls reuse the
/// same warm blocks instead of paying malloc + page faults per call.
struct OrientedCsr {
  std::span<std::uint32_t> offsets;  // size n+1
  std::span<Vertex> cols;            // size m, id-sorted per row

  [[nodiscard]] std::span<const Vertex> row(Vertex u) const noexcept {
    return {cols.data() + offsets[u], cols.data() + offsets[u + 1]};
  }
};

/// Orientation build for the SIMD strategies. Same output as the reference
/// passes below, arrived at faster: one sequentially-built (degree, id)
/// rank key per vertex replaces the two offset loads behind g.degree(v)
/// and makes the predicate a single branchless u64 compare; neighbor rank
/// loads are prefetched a few iterations ahead (the rank array is bigger
/// than L1 and the accesses are random); the fill pass stores through a
/// cmov-selected pointer instead of a 50%-mispredicting branch. The rank
/// scratch lives in a nested scope so it is released before the caller's
/// kernel loops run.
void orient_fast(const Graph& g, Arena& arena, OrientedCsr& csr) {
  const std::size_t n = g.n();
  ArenaScope scope(arena);
  const std::span<std::uint64_t> rank = scope.arena().alloc<std::uint64_t>(n);
  parallel_for(n, [&](std::size_t v) {
    rank[v] = (static_cast<std::uint64_t>(g.degree(static_cast<Vertex>(v))) << 32) | v;
  });
  constexpr std::size_t kLook = 16;
  parallel_for(n, [&](std::size_t u) {
    const auto row = g.neighbors(static_cast<Vertex>(u));
    const std::uint64_t ru = rank[u];
    std::uint32_t out = 0;
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j + kLook < row.size()) __builtin_prefetch(&rank[row[j + kLook]], 0, 3);
      out += ru < rank[row[j]] ? 1u : 0u;
    }
    csr.offsets[u + 1] = out;
  });
  for (std::size_t u = 0; u < n; ++u) csr.offsets[u + 1] += csr.offsets[u];
  parallel_for(n, [&](std::size_t u) {
    const auto row = g.neighbors(static_cast<Vertex>(u));
    const std::uint64_t ru = rank[u];
    std::uint32_t w = csr.offsets[u];
    // A plain always-store would spill one slot past the row's end on a
    // trailing discard — racing the worker filling the next row. Routing
    // rejects into a dummy keeps the store unconditional and safe.
    Vertex* const base = csr.cols.data();
    Vertex reject = 0;
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j + kLook < row.size()) __builtin_prefetch(&rank[row[j + kLook]], 0, 3);
      const Vertex v = row[j];
      const bool keep = ru < rank[v];
      *(keep ? base + w : &reject) = v;
      w += keep ? 1u : 0u;
    }
  });
}

OrientedCsr orient(const Graph& g, Arena& arena) {
  // offsets are 32-bit: refuse inputs that would silently wrap them.
  kernel::require_csr_offsets_fit(g.num_edges());
  const std::size_t n = g.n();
  OrientedCsr csr;
  csr.offsets = arena.alloc<std::uint32_t>(n + 1);
  csr.cols = arena.alloc<Vertex>(g.num_edges());
  csr.offsets[0] = 0;  // the count pass below writes indices 1..n
  if (kernel::resolved_variant() != Variant::kScalar) {
    orient_fast(g, arena, csr);
    return csr;
  }
  const auto lower = [&g](Vertex a, Vertex b) {
    const auto da = g.degree(a);
    const auto db = g.degree(b);
    return da != db ? da < db : a < b;
  };
  // Count pass (parallel, disjoint writes), serial prefix sum, fill pass
  // (parallel: each worker writes only its own rows' ranges). This is the
  // pre-PR build, kept verbatim as the kScalar reference.
  parallel_for(n, [&](std::size_t u) {
    std::uint32_t out = 0;
    for (const Vertex v : g.neighbors(static_cast<Vertex>(u))) {
      out += lower(static_cast<Vertex>(u), v) ? 1u : 0u;
    }
    csr.offsets[u + 1] = out;
  });
  for (std::size_t u = 0; u < n; ++u) csr.offsets[u + 1] += csr.offsets[u];
  parallel_for(n, [&](std::size_t u) {
    std::uint32_t w = csr.offsets[u];
    for (const Vertex v : g.neighbors(static_cast<Vertex>(u))) {
      if (lower(static_cast<Vertex>(u), v)) csr.cols[w++] = v;
    }
  });
  return csr;
}

/// Rows at least this long take the mark/bitmap path in count_triangles;
/// shorter rows use the merge (marking cost would dominate).
constexpr std::size_t kMarkThreshold = 8;

/// Packing pairs take the mark-shorter/probe-longer bitmap path only when
/// the shorter side is at least this long (and the longer side dwarfs it;
/// see greedy_triangle_packing); otherwise the merge wins.
constexpr std::size_t kPackBitmapThreshold = 32;

/// AVX2 byte-mark gathers index with signed 32-bit lanes; ids must stay
/// below 2^31 (the bitmap path shifts word indices and has no such limit).
constexpr std::uint64_t kGatherIdLimit = std::uint64_t{1} << 31;

/// Request every cache line of a row ahead of use. The candidate rows the
/// kernels scan are scattered over the whole CSR (tens of MB at bench
/// scale), so the hot loops are DRAM-latency-bound; a lookahead prefetch
/// overlaps those misses with current work. count_triangles prefetches only
/// on the SIMD strategies — its kScalar path stays byte-for-byte the pre-PR
/// kernel so the A/B bench keeps a stable reference; the packing has one
/// path and prefetches on every variant.
inline void prefetch_row(const Vertex* p, std::size_t count) noexcept {
  const auto* c = reinterpret_cast<const char*>(p);
  const auto* end = reinterpret_cast<const char*>(p + count);
  for (; c < end; c += 64) __builtin_prefetch(c, 0, 3);
}

/// Lookahead distance (in loop iterations) for the prefetches above.
constexpr std::size_t kPrefetchDist = 8;
constexpr std::size_t kPackPrefetchDist = 16;

inline void set_bit(std::uint32_t* bits, Vertex w) noexcept {
  bits[w >> 5] |= std::uint32_t{1} << (w & 31);
}
inline void clear_bit(std::uint32_t* bits, Vertex w) noexcept {
  bits[w >> 5] &= ~(std::uint32_t{1} << (w & 31));
}

/// Column-tiling decision for the bitset count path. Auto mode blocks only
/// when the full bitmap would blow past L2 (~1 MiB at n = 2^23), tiling in
/// 2^22-vertex slices (512 KiB) so the hot slice stays resident;
/// kernel::set_block_bits forces a width for tests.
struct BlockPlan {
  bool blocked = false;
  std::uint64_t span = 0;  // vertices per tile
};

BlockPlan block_plan(std::size_t n) {
  const std::uint32_t bb = kernel::block_bits();
  if (bb != 0) {
    const std::uint64_t span = std::uint64_t{1} << std::min(bb, 31u);
    return span < n ? BlockPlan{true, span} : BlockPlan{};
  }
  constexpr std::size_t kAutoBitmapBits = std::size_t{8} << 20;  // 1 MiB of bitmap
  if (n > kAutoBitmapBits) return {true, std::uint64_t{1} << 22};
  return {};
}

/// Count contributions of one long-row vertex u via the blocked bitset path:
/// for each column tile [lo, hi), mark u's out-neighbors falling in the tile
/// into a slice-local bitmap and advance a per-v cursor over each N+(v),
/// counting set bits. Cursors are monotone (tiles ascend), so the total work
/// per pair is one extra pass over N+(v); integer sums make the block
/// decomposition exact — same count as the unblocked path, always.
std::uint64_t count_blocked(const OrientedCsr& out, std::span<const Vertex> row_u,
                            std::uint32_t* bits, const BlockPlan& plan, std::size_t n,
                            const Ops& ops) {
  ArenaScope scope;
  const std::span<std::uint32_t> cursors = scope.arena().alloc<std::uint32_t>(row_u.size());
  for (std::size_t i = 0; i < row_u.size(); ++i) cursors[i] = out.offsets[row_u[i]];
  std::uint64_t total = 0;
  std::size_t mark_lo = 0;
  for (std::uint64_t lo = 0; lo < n; lo += plan.span) {
    const std::uint64_t hi = std::min<std::uint64_t>(lo + plan.span, n);
    std::size_t mark_hi = mark_lo;
    while (mark_hi < row_u.size() && row_u[mark_hi] < hi) ++mark_hi;
    const bool any = mark_hi > mark_lo;
    if (any) {
      for (std::size_t j = mark_lo; j < mark_hi; ++j) {
        set_bit(bits, static_cast<Vertex>(row_u[j] - lo));
      }
    }
    for (std::size_t i = 0; i < row_u.size(); ++i) {
      std::uint32_t c = cursors[i];
      const std::uint32_t vend = out.offsets[row_u[i] + 1];
      std::uint32_t cend = c;
      while (cend < vend && out.cols[cend] < hi) ++cend;
      if (any && cend > c) {
        total += ops.bitmap_count(bits, out.cols.data() + c, cend - c,
                                  static_cast<Vertex>(lo));
      }
      cursors[i] = cend;
    }
    if (any) {
      for (std::size_t j = mark_lo; j < mark_hi; ++j) {
        clear_bit(bits, static_cast<Vertex>(row_u[j] - lo));
      }
    }
    mark_lo = mark_hi;
  }
  return total;
}

}  // namespace

std::uint64_t count_triangles(const Graph& g) {
  ArenaScope scope;
  const OrientedCsr out = orient(g, scope.arena());
  const Ops& ops = kernel::ops();
  const bool bitset = ops.strategy == Variant::kBitset;
  const BlockPlan plan = bitset ? block_plan(g.n()) : BlockPlan{};
  // The byte-mark gather path needs ids < 2^31; beyond that, probe scalar.
  auto* const marks_count =
      g.n() < kGatherIdLimit ? ops.marks_count : kernel::ops_for(Variant::kScalar).marks_count;
  const bool prefetch = ops.strategy != Variant::kScalar;
  // Integer sums are order-independent, and parallel_reduce folds chunk
  // partials in chunk order anyway, so the count is exact and identical at
  // any thread count — and across every kernel variant.
  return parallel_reduce(
      g.n(), std::uint64_t{0},
      [&](std::size_t begin, std::size_t end) {
        std::uint64_t total = 0;
        std::uint8_t* const marks = bitset ? nullptr : kernel::mark_bytes(g.n());
        std::uint32_t* const bits =
            bitset ? kernel::mark_bits(plan.blocked ? plan.span : g.n()) : nullptr;
        for (std::size_t u = begin; u < end; ++u) {
          const auto row_u = out.row(static_cast<Vertex>(u));
          if (row_u.size() < 2) continue;
          if (row_u.size() < kMarkThreshold) {
            for (const Vertex v : row_u) total += ops.merge_count(row_u, out.row(v));
            continue;
          }
          if (!bitset) {
            // Mark N+(u) once, then scan each N+(v) against the marks: a
            // branch-free byte probe per candidate instead of a
            // mispredicting merge step.
            for (const Vertex w : row_u) marks[w] = 1;
            for (std::size_t j = 0; j < row_u.size(); ++j) {
              if (prefetch && j + kPrefetchDist < row_u.size()) {
                const Vertex pv = row_u[j + kPrefetchDist];
                prefetch_row(out.cols.data() + out.offsets[pv],
                             out.offsets[pv + 1] - out.offsets[pv]);
              }
              const Vertex v = row_u[j];
              total += marks_count(marks, out.cols.data() + out.offsets[v],
                                   out.offsets[v + 1] - out.offsets[v]);
            }
            for (const Vertex w : row_u) marks[w] = 0;
          } else if (plan.blocked) {
            total += count_blocked(out, row_u, bits, plan, g.n(), ops);
          } else {
            // Bit-packed marks: 1 bit/vertex keeps the whole mark set
            // L1-resident at n = 1e5 (12.5 KB vs 100 KB of bytes).
            for (const Vertex w : row_u) set_bit(bits, w);
            for (std::size_t j = 0; j < row_u.size(); ++j) {
              if (j + kPrefetchDist < row_u.size()) {
                const Vertex pv = row_u[j + kPrefetchDist];
                prefetch_row(out.cols.data() + out.offsets[pv],
                             out.offsets[pv + 1] - out.offsets[pv]);
              }
              const Vertex v = row_u[j];
              total += ops.bitmap_count(bits, out.cols.data() + out.offsets[v],
                                        out.offsets[v + 1] - out.offsets[v], 0);
            }
            for (const Vertex w : row_u) clear_bit(bits, w);
          }
        }
        return total;
      },
      std::plus<>{});
}

std::optional<Triangle> find_triangle(const Graph& g) {
  // Serial: on triangle-rich inputs this exits almost immediately, and the
  // callers that need "some triangle" (referees, tests) want the cheap
  // first hit, not a parallel sweep. Never blocked: every variant visits
  // common neighbors in (v-in-row-order, w-ascending) order, so the
  // reported triangle is identical across scalar/AVX2/bitset.
  ArenaScope scope;
  const OrientedCsr out = orient(g, scope.arena());
  const Ops& ops = kernel::ops();
  for (Vertex u = 0; u < g.n(); ++u) {
    const auto row_u = out.row(u);
    for (const Vertex v : row_u) {
      Vertex w = 0;
      if (ops.merge_find(row_u, out.row(v), nullptr, nullptr, &w)) {
        return Triangle(u, v, w);
      }
    }
  }
  return std::nullopt;
}

std::optional<Triangle> close_vee(const Graph& g, const Vee& vee) {
  if (!g.contains(vee)) return std::nullopt;
  if (!g.has_edge(vee.x, vee.y)) return std::nullopt;
  return Triangle(vee.source, vee.x, vee.y);
}

namespace {

/// Edge indices from the graph's own CSR. The edge list is sorted by
/// (u, v), so the edges with first endpoint u form a contiguous range, and
/// that range lists u's upper row N+(u) = {w in N(u) : w > u}, which is the
/// tail of u's CSR row: its k-th entry is edge row_start[u] + k. Lookups
/// binary-search that 4-byte row rather than the 8-byte edge structs.
struct EdgeIndex {
  const Graph& g;
  std::vector<std::uint32_t> row_start;  // first edge index with .u >= u

  explicit EdgeIndex(const Graph& graph) : g(graph) {
    row_start.assign(static_cast<std::size_t>(g.n()) + 1, 0);
    for (const Edge& e : g.edges()) ++row_start[e.u + 1];
    for (std::size_t u = 1; u < row_start.size(); ++u) row_start[u] += row_start[u - 1];
  }

  [[nodiscard]] std::span<const Vertex> upper_row(Vertex u) const noexcept {
    return g.neighbors(u).last(row_start[u + 1] - row_start[u]);
  }

  [[nodiscard]] std::size_t of(Vertex a, Vertex b) const noexcept {
    const Edge e(a, b);
    const auto row = upper_row(e.u);
    return row_start[e.u] +
           static_cast<std::size_t>(std::lower_bound(row.begin(), row.end(), e.v) - row.begin());
  }
};

/// One bit per edge index; the allocation-free replacement for the packing
/// loop's used-edge hash set.
class EdgeBitmap {
 public:
  explicit EdgeBitmap(std::size_t edges) : words_((edges + 63) / 64, 0) {}

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) noexcept { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Per-edge result of the listing phase: the closure (pair of closing edge
/// indices) with the smallest closing vertex, and one bit saying whether
/// the edge has any other closure. For edge {a, b} (a < b) closed by w the
/// slot holds (index{a, w} << 32) | index{b, w}. The sorted edge list makes
/// index{a, w} strictly increasing in w for fixed a, so the numeric minimum
/// of the slot is the minimum-w closure and a CAS-min keeps it.
constexpr std::uint64_t kNoClosure = ~std::uint64_t{0};

struct ClosureSlots {
  std::span<std::uint64_t> slot;  // per edge; kNoClosure when in no triangle
  std::span<std::uint64_t> more;  // bit per edge: another closure exists

  void offer(std::uint32_t e, std::uint32_t via_low, std::uint32_t via_high) const noexcept {
    const std::uint64_t key = (static_cast<std::uint64_t>(via_low) << 32) | via_high;
    std::atomic_ref<std::uint64_t> cell(slot[e]);
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (key < cur && !cell.compare_exchange_weak(cur, key, std::memory_order_relaxed)) {
      // A failed CAS reloaded cur; retry while this closure is still smaller.
    }
    // cur is what the slot held when this offer lost or won: only the first
    // offer to an edge finds it empty.
    if (cur == kNoClosure) return;
    // Load before the RMW: on triangle-dense inputs almost every offer finds
    // the bit already set.
    const std::uint64_t bit = std::uint64_t{1} << (e & 63);
    std::atomic_ref<std::uint64_t> word(more[e >> 6]);
    if ((word.load(std::memory_order_relaxed) & bit) == 0) {
      word.fetch_or(bit, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bool has_more(std::size_t e) const noexcept {
    return (more[e >> 6] >> (e & 63)) & 1u;
  }
};

/// Phase 1: list every triangle u < v < w once, in id order, and offer each
/// of its three closures. Per u, N+(u) is marked in the thread's bitmap and
/// each N+(v), v in N+(u), is scanned against the marks; the hit's position
/// in N+(v) is edge vw, and edge uw is a search in the hot N+(u). When N+(v)
/// dwarfs N+(u) (a mid-id hub), the roles flip: walk N+(u) past v and
/// search N+(v), so no arc costs more than ~8 min(|N+u|, |N+v|) or
/// |N+u| log |N+v|. The slots are a pure function of the graph, so the
/// result is the same at any thread count and chunking.
void list_closures(const Graph& g, const EdgeIndex& index, const ClosureSlots& slots) {
  const auto& rs = index.row_start;
  const std::size_t m = g.num_edges();
  // Chunks split the arc list, not the vertex range: a hub's upper row can
  // carry a large share of the work, and a row cut across chunks only costs
  // one more marking pass. Small graphs (under 4096 arcs) stay one chunk.
  const std::size_t chunks = std::min<std::size_t>(64, (m + 4095) / 4096);
  parallel_for(chunks, [&](std::size_t c) {
    const auto first = static_cast<std::uint32_t>(m * c / chunks);
    const auto last = static_cast<std::uint32_t>(m * (c + 1) / chunks);
    std::uint32_t* const bits = kernel::mark_bits(g.n());
    for (std::uint32_t arc = first; arc < last;) {
      const Vertex u = g.edge(arc).u;
      const auto up_u = index.upper_row(u);
      const std::uint32_t row_end = std::min(last, rs[u + 1]);
      // The last arc of a row has no w > v left in N+(u).
      const std::size_t k_end = std::min<std::size_t>(row_end - rs[u], up_u.size() - 1);
      for (const Vertex w : up_u) set_bit(bits, w);
      for (std::size_t k = arc - rs[u]; k < k_end; ++k) {
        if (k + kPrefetchDist < up_u.size()) {
          const auto ahead = index.upper_row(up_u[k + kPrefetchDist]);
          prefetch_row(ahead.data(), ahead.size());
        }
        const Vertex v = up_u[k];
        const auto up_v = index.upper_row(v);
        if (up_v.empty()) continue;
        const std::uint32_t uv = rs[u] + static_cast<std::uint32_t>(k);
        const auto emit = [&](std::size_t ku, std::size_t kv) {
          const std::uint32_t uw = rs[u] + static_cast<std::uint32_t>(ku);
          const std::uint32_t vw = rs[v] + static_cast<std::uint32_t>(kv);
          slots.offer(uv, uw, vw);  // closed by w
          slots.offer(uw, uv, vw);  // closed by v
          slots.offer(vw, uv, uw);  // closed by u
        };
        // Both branches look up ascending w, so each search gallops on from
        // the previous hit.
        if (up_v.size() > 8 * up_u.size()) {
          const Vertex* at = up_v.data();
          const Vertex* const end = up_v.data() + up_v.size();
          for (std::size_t ku = k + 1; ku < up_u.size() && at != end; ++ku) {
            at = kernel::gallop_lower_bound(at, end, up_u[ku]);
            if (at != end && *at == up_u[ku]) {
              emit(ku, static_cast<std::size_t>(at - up_v.data()));
            }
          }
          continue;
        }
        const Vertex* at = up_u.data() + k + 1;
        for (std::size_t kv = 0; kv < up_v.size(); ++kv) {
          const Vertex w = up_v[kv];
          if (((bits[w >> 5] >> (w & 31)) & 1u) == 0) continue;
          at = kernel::gallop_lower_bound(at, up_u.data() + up_u.size(), w);
          emit(static_cast<std::size_t>(at - up_u.data()), kv);
        }
      }
      for (const Vertex w : up_u) clear_bit(bits, w);
      arc = row_end;
    }
  });
}

/// Candidate filter for the packing search: accept the first common
/// neighbor w whose closing edges are both unused. Shared by the merge and
/// bitmap probes, which visit the same candidates in the same (ascending)
/// order — packings are identical across variants.
struct PackCtx {
  const EdgeIndex* index;
  const EdgeBitmap* used;
  Vertex u, v;
  std::size_t uw = 0, vw = 0;  // out: edge indices of the accepted closure
};

bool pack_accept(void* p, Vertex w) {
  auto* c = static_cast<PackCtx*>(p);
  const std::size_t uw = c->index->of(c->u, w);
  if (c->used->test(uw)) return false;
  const std::size_t vw = c->index->of(c->v, w);
  if (c->used->test(vw)) return false;
  c->uw = uw;
  c->vw = vw;
  return true;
}

}  // namespace

std::vector<Triangle> greedy_triangle_packing(const Graph& g, Rng& rng) {
  // 32-bit edge indices (the CSR-width guard bounds m) halve the shuffle
  // footprint and let one 8-byte slot hold a closure; the arena reuses the
  // same blocks across calls.
  kernel::require_csr_offsets_fit(g.num_edges());
  ArenaScope scope;
  const std::size_t m = g.num_edges();
  const std::span<std::uint32_t> order = scope.arena().alloc<std::uint32_t>(m);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  // Fisher-Yates shuffle with our Rng (same value sequence as the original
  // size_t order array: rng.below draws are index-only).
  for (std::size_t i = m; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  const EdgeIndex index(g);
  const ClosureSlots slots{scope.arena().alloc<std::uint64_t>(m),
                           scope.arena().alloc<std::uint64_t>((m + 63) / 64)};
  std::fill(slots.slot.begin(), slots.slot.end(), kNoClosure);
  std::fill(slots.more.begin(), slots.more.end(), std::uint64_t{0});
  list_closures(g, index, slots);

  // Phase 2: the greedy pass. Each unused edge takes the first w ascending
  // whose closing edges are both unused. Its slot is the minimum-w closure,
  // so when that one is free it is the answer; only an edge whose first
  // closure is taken and that has another goes back to the row search.
  EdgeBitmap used(m);
  const Ops& ops = kernel::ops();
  const bool bitset = ops.strategy == Variant::kBitset;
  std::uint32_t* const bits = bitset ? kernel::mark_bits(g.n()) : nullptr;
  std::vector<Triangle> packing;
  for (std::size_t i = 0; i < m; ++i) {
    // The shuffled order makes every slot and edge read a fresh miss; the
    // order array itself is sequential, so look a few edges ahead.
    if (i + kPackPrefetchDist < m) {
      const std::uint32_t ahead = order[i + kPackPrefetchDist];
      __builtin_prefetch(&slots.slot[ahead], 0, 3);
      __builtin_prefetch(&g.edge(ahead), 0, 3);
    }
    const std::uint32_t idx = order[i];
    if (used.test(idx)) continue;
    const std::uint64_t closure = slots.slot[idx];
    if (closure == kNoClosure) continue;
    const Edge e = g.edge(idx);
    const auto low = static_cast<std::uint32_t>(closure >> 32);
    const auto high = static_cast<std::uint32_t>(closure);
    const bool first_free = !used.test(low) && !used.test(high);
    if (!first_free && !slots.has_more(idx)) continue;
    const Edge first_uw = g.edge(low);
    const Vertex first_w = first_uw.u ^ first_uw.v ^ e.u;
    if (first_free) {
      used.set(idx);
      used.set(low);
      used.set(high);
      packing.emplace_back(e.u, e.v, first_w);
      continue;
    }
    // Search for a closing vertex w: common neighbors of u and v in id
    // order (the same candidate order as scanning N(u) and probing vs v),
    // past first_w, which is the smallest one and is taken.
    const auto past_first = [first_w](std::span<const Vertex> row) {
      return row.subspan(static_cast<std::size_t>(
          std::upper_bound(row.begin(), row.end(), first_w) - row.begin()));
    };
    const auto nu = past_first(g.neighbors(e.u));
    const auto nv = past_first(g.neighbors(e.v));
    PackCtx ctx{&index, &used, e.u, e.v};
    Vertex w = 0;
    bool found;
    const auto shorter = nu.size() <= nv.size() ? nu : nv;
    const auto longer = nu.size() <= nv.size() ? nv : nu;
    // Mark-and-probe only pays when the longer row dwarfs the shorter one:
    // marking costs two extra passes over the shorter row, and on balanced
    // rows the 8-wide block merge beats per-candidate bitmap gathers. Both
    // paths visit commons in the same ascending order, so the packing is
    // identical either way.
    if (bitset && shorter.size() >= kPackBitmapThreshold &&
        longer.size() >= 8 * shorter.size()) {
      for (const Vertex x : shorter) set_bit(bits, x);
      found = ops.bitmap_find(bits, longer.data(), longer.size(), pack_accept, &ctx, &w);
      for (const Vertex x : shorter) clear_bit(bits, x);
    } else {
      found = ops.merge_find(nu, nv, pack_accept, &ctx, &w);
    }
    if (found) {
      used.set(idx);
      used.set(ctx.uw);
      used.set(ctx.vw);
      packing.emplace_back(e.u, e.v, w);
    }
  }
  return packing;
}

std::uint64_t distance_lower_bound(const Graph& g, Rng& rng) {
  return greedy_triangle_packing(g, rng).size();
}

bool certify_eps_far(const Graph& g, double eps, Rng& rng) {
  const double need = eps * static_cast<double>(g.num_edges());
  return static_cast<double>(distance_lower_bound(g, rng)) >= need;
}

std::vector<Triangle> triangles_through(const Graph& g, Vertex source, std::size_t limit) {
  std::vector<Triangle> out;
  const auto ns = g.neighbors(source);
  for (std::size_t i = 0; i < ns.size() && out.size() < limit; ++i) {
    for (std::size_t j = i + 1; j < ns.size() && out.size() < limit; ++j) {
      if (g.has_edge(ns[i], ns[j])) out.emplace_back(source, ns[i], ns[j]);
    }
  }
  return out;
}

std::uint64_t disjoint_vees_at(const Graph& g, Vertex source) {
  // Greedy matching on the "closing" graph over N(source): vees from the
  // same source are disjoint iff their endpoint pairs are disjoint
  // (Section 3.2). Greedy maximal matching is a 1/2-approximation of the
  // maximum, which is enough for the full-vertex tests that consume this.
  //
  // For each unmatched x (in neighbor order), the first eligible partner is
  // the first unmatched common element of N(source) and N(x) — a sorted
  // two-pointer intersection with flat matched flags indexed by position in
  // N(source), instead of the former O(deg^2) probe loop with a hash set.
  // Stays scalar: the matched-position bookkeeping keys on *positions* in
  // N(source), which the value-keyed kernel primitives don't expose.
  const auto ns = g.neighbors(source);
  std::vector<std::uint8_t> matched(ns.size(), 0);
  std::uint64_t count = 0;
  for (std::size_t ix = 0; ix < ns.size(); ++ix) {
    if (matched[ix]) continue;
    const Vertex x = ns[ix];
    const auto nx = g.neighbors(x);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ns.size() && j < nx.size()) {
      if (ns[i] < nx[j]) {
        ++i;
      } else if (nx[j] < ns[i]) {
        ++j;
      } else {
        if (i != ix && !matched[i]) {
          matched[ix] = 1;
          matched[i] = 1;
          ++count;
          break;
        }
        ++i;
        ++j;
      }
    }
  }
  return count;
}

}  // namespace tft
