#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>

#include "graph/graph.h"
#include "util/arena.h"
#include "util/parallel.h"
#include "util/rng.h"

/// \file pair_sampling.h
/// Shared primitives for index-space edge sampling, used by both the
/// sequential-stream generators (graph/generators.cpp) and the chunked,
/// communication-free generator family (graph/chunked.h): linear ranking of
/// vertex pairs and geometric skip-sampling over an arbitrary index range.
///
/// The sequential generators draw one geometric gap per kept index from a
/// single Rng stream; the chunked family draws the same gaps from per-block
/// streams over sub-ranges. Both call the same code so the sampling math
/// (and its committed-baseline bit patterns) lives in exactly one place.

namespace tft {

/// Number of unordered pairs over [0, n): n*(n-1)/2 without overflow for
/// any 32-bit n (the product is evaluated in 64 bits; one factor is even).
[[nodiscard]] constexpr std::uint64_t pair_count(std::uint64_t n) noexcept {
  return n < 2 ? 0 : (n % 2 == 0 ? (n / 2) * (n - 1) : n * ((n - 1) / 2));
}

/// Map a linear index over the strict upper triangle of an n x n matrix to a
/// (row, col) pair with row < col. Inverse of
/// idx = r*n - r*(r+1)/2 + (c - r - 1).
[[nodiscard]] inline std::pair<Vertex, Vertex> unrank_pair(std::uint64_t idx, std::uint64_t n) {
  assert(idx < pair_count(n));
  // Solve for the row via the quadratic formula, then fix up the potential
  // floating-point off-by-one (the sqrt of a ~2^53 argument can land a row
  // early or late; the while loops walk at most a couple of steps).
  const double nd = static_cast<double>(n);
  double rd = std::floor(nd - 0.5 -
                         std::sqrt((nd - 0.5) * (nd - 0.5) - 2.0 * static_cast<double>(idx)));
  auto r = static_cast<std::uint64_t>(std::max(0.0, rd));
  auto row_start = [&](std::uint64_t rr) { return rr * n - rr * (rr + 1) / 2; };
  while (r + 1 < n && row_start(r + 1) <= idx) ++r;
  while (r > 0 && row_start(r) > idx) --r;
  const std::uint64_t c = r + 1 + (idx - row_start(r));
  assert(c < n);
  return {static_cast<Vertex>(r), static_cast<Vertex>(c)};
}

/// A batch of kept indices, in increasing order.
using IndexBatch = std::span<const std::uint64_t>;

/// sink(Edge{r, c}) for the unrank_pair of every index of `batch` (over n
/// vertices), in order. Only the first index is solved by unrank_pair; the
/// rest walk the row starts forward, so a batch costs O(size + rows crossed)
/// with no square root per index. The pairs are exactly unrank_pair's.
template <typename Sink>
void unrank_increasing(IndexBatch batch, std::uint64_t n, Sink&& sink) {
  if (batch.empty()) return;
  std::uint64_t r = unrank_pair(batch.front(), n).first;
  std::uint64_t start = r * n - r * (r + 1) / 2;  // first index of row r
  std::uint64_t next = start + (n - 1 - r);       // first index of row r + 1
  for (const std::uint64_t idx : batch) {
    assert(idx >= start && idx < pair_count(n));
    while (idx >= next) {
      ++r;
      start = next;
      next += n - 1 - r;
    }
    sink(Edge{static_cast<Vertex>(r), static_cast<Vertex>(r + 1 + (idx - start))});
  }
}

/// Most draws skip_sample_range takes per batch: the largest scratch,
/// kSkipBatch words (2 MiB).
inline constexpr std::size_t kSkipBatch = std::size_t{1} << 18;

/// Scratch for skip_sample_range over ranges that keep about
/// `expected_kept` indices each: room for them and their spread, at most
/// kSkipBatch words, taken from `arena`. Allocate it in the caller's
/// ArenaScope and reuse it for every range that caller samples; the sampler
/// opens no scope of its own, because its callers grow arena buffers from
/// inside `fn`.
[[nodiscard]] inline std::span<std::uint64_t> skip_scratch(Arena& arena, double expected_kept) {
  const double words = expected_kept + 4.0 * std::sqrt(expected_kept) + 64.0;
  return arena.alloc<std::uint64_t>(
      words < static_cast<double>(kSkipBatch) ? static_cast<std::size_t>(words) : kSkipBatch);
}

/// Calls fn(batch) with the indices i in [lo, hi) kept independently with
/// probability p, in increasing order, as consecutive spans of at most
/// scratch.size() indices. Geometric skip sampling: O(expected kept) time
/// and O(expected kept) draws from rng.
///
/// Contract: the kept indices, and the draws taken from rng, are exactly
/// those of the one-gap-per-draw loop
///   cursor = lo - 1;
///   for (;;) { cursor += 1 + floor(log(max(rng.uniform(), 1e-300)) / log1p(-p));
///              if (cursor >= hi) break; fn(cursor); }
/// at any thread count. Only the work is batched: each batch takes its raw
/// draws serially into `scratch`, turns them into gaps (the log is the
/// cost) in chunks of kMinChunkWork draws, in parallel when there is more
/// than one, and adds the gaps to the same double cursor serially. The
/// batch that crosses hi drew past the stopping draw, so the rng is reset to
/// its state at that batch's start and advanced by the draws consumed.
/// Batches are sized from the draws still expected: large ones that almost
/// surely stop short of hi, then one small one with slack, so the draws
/// replayed are O(sqrt(kept)) and a short range does not draw a whole
/// scratch buffer. A batch never holds more than scratch.size() words.
template <typename Fn>
void skip_sample_range(std::uint64_t lo, std::uint64_t hi, double p, Rng& rng,
                       std::span<std::uint64_t> scratch, Fn&& fn) {
  assert(!scratch.empty());
  if (p <= 0.0 || hi <= lo) return;
  if (p >= 1.0) {
    for (std::uint64_t i = lo; i < hi;) {
      const auto count =
          static_cast<std::size_t>(std::min<std::uint64_t>(hi - i, scratch.size()));
      std::iota(scratch.begin(), scratch.begin() + count, i);
      fn(IndexBatch(scratch.data(), count));
      i += count;
    }
    return;
  }
  const double log1mp = std::log1p(-p);
  const double end = static_cast<double>(hi);
  const auto cap = static_cast<double>(scratch.size());
  double cursor = static_cast<double>(lo) - 1.0;
  for (;;) {
    // Draws still expected, and a size that almost surely stops short of
    // hi; once that is small, one last batch with slack covers the rest.
    const double want = (end - cursor) * p;
    const double short_of_hi = want - 4.0 * std::sqrt(want);
    const double size = short_of_hi >= 64.0 ? short_of_hi : want + 4.0 * std::sqrt(want) + 16.0;
    const std::size_t batch = size < cap ? static_cast<std::size_t>(size) : scratch.size();
    const Rng start = rng;
    for (std::size_t i = 0; i < batch; ++i) scratch[i] = rng();
    // Geometric gap, 1 + floor(log(U) / log(1-p)), stored as double bits.
    parallel_for(
        batch,
        [&](std::size_t i) {
          const double u = std::max(Rng::to_uniform(scratch[i]), 1e-300);
          scratch[i] = std::bit_cast<std::uint64_t>(1.0 + std::floor(std::log(u) / log1mp));
        },
        kMinChunkWork);
    std::size_t kept = 0;
    for (; kept < batch; ++kept) {
      cursor += std::bit_cast<double>(scratch[kept]);
      if (cursor >= end) break;
      scratch[kept] = static_cast<std::uint64_t>(cursor);
    }
    const bool stopped = kept < batch;
    if (stopped) {
      rng = start;
      for (std::size_t i = 0; i <= kept; ++i) (void)rng();
    }
    if (kept > 0) fn(IndexBatch(scratch.data(), kept));
    if (stopped) return;
  }
}

}  // namespace tft
