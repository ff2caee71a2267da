#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/mem.h"

/// \file arena.h
/// Bump-pointer arena for kernel and generator hot loops.
///
/// Hot paths in orientation (`orient()`'s offsets/cols arrays), generator
/// edge staging, and chunked slice assembly used to allocate fresh
/// `std::vector`s per call — at n = 1e5, d = √n that is > 60 MB of
/// malloc + page-fault traffic per `find_triangle` call. The arena replaces
/// those with a per-thread block chain that is bump-allocated, rewound
/// between calls, and reused across calls, so steady-state hot loops touch
/// only warm pages.
///
/// Contracts:
///   * Trivially-destructible payloads only (`alloc<T>` static_asserts):
///     rewind/reset never run destructors.
///   * All block memory charges `arena_charge`/`arena_release` (util/mem.h),
///     so arena footprint shows up in the existing `arena_hw_bytes` bench
///     column with no new plumbing.
///   * `thread_arena()` hands each thread its own arena; `ArenaScope` is the
///     RAII mark/rewind pair hot loops wrap themselves in. Nesting scopes is
///     fine (stack discipline).
///   * Memory is uninitialized; `alloc<T>(count)` returns a span the caller
///     must fully write before reading.
///
/// This is deliberately NOT the accounting "arena" of util/mem.h (a pure
/// byte counter) — this one owns memory; it reports through those counters.

namespace tft {

class Arena {
 public:
  /// First block size; subsequent blocks double up to kMaxBlockBytes.
  static constexpr std::size_t kMinBlockBytes = std::size_t{64} << 10;  // 64 KiB
  static constexpr std::size_t kMaxBlockBytes = std::size_t{64} << 20;  // 64 MiB

  Arena() = default;
  ~Arena() { release_all(); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw bump allocation. Alignment must be a power of two (<= 64).
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  /// Typed allocation of `count` uninitialized T's.
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is rewound without running destructors");
    if (count == 0) return {};
    return {static_cast<T*>(allocate(count * sizeof(T), alignof(T))), count};
  }

  /// Position marker for rewind(). Valid until the arena is reset/destroyed
  /// or an earlier marker is rewound past it.
  struct Marker {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] Marker mark() const noexcept { return {active_, used_}; }

  /// Return to a previous mark. Memory allocated since stays owned by the
  /// arena (capacity, not live bytes) and is reused by later allocations.
  void rewind(Marker m) noexcept {
    active_ = m.block;
    used_ = m.used;
  }

  /// Rewind everything; keep capacity.
  void reset() noexcept {
    active_ = 0;
    used_ = 0;
  }

  /// Free every block whose retention would push kept capacity above
  /// `keep_bytes`, and rewind. The footprint-control knob: a one-off huge
  /// call doesn't pin its blocks for the life of the thread.
  void trim(std::size_t keep_bytes);

  /// Free all blocks and rewind (trim(0)).
  void release_all() { trim(0); }

  [[nodiscard]] std::size_t capacity_bytes() const noexcept;
  [[nodiscard]] std::size_t used_bytes() const noexcept;

 private:
  struct Block {
    std::byte* data = nullptr;
    std::size_t size = 0;
  };

  void add_block(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  // index of the block being bumped
  std::size_t used_ = 0;    // bytes used in blocks_[active_]
};

/// The calling thread's arena (created on first use, freed at thread exit).
[[nodiscard]] Arena& thread_arena();

/// RAII mark/rewind over an arena (default: the thread arena). Hot loops
/// open a scope, alloc freely, and the scope hands the memory back on exit.
class ArenaScope {
 public:
  ArenaScope() : ArenaScope(thread_arena()) {}
  explicit ArenaScope(Arena& arena) noexcept : arena_(arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  Arena& arena() noexcept { return arena_; }

 private:
  Arena& arena_;
  Arena::Marker mark_;
};

/// Growable staging buffer in an arena: push_back with doubling growth, then
/// `take()` copies into an exact-size std::vector for the long-lived result.
/// Replaces `std::vector<T> staging; ...; staging.shrink_to_fit()` patterns
/// in generator hot loops — growth churn stays inside reused arena blocks
/// and the escaping vector is allocated once at its final size.
template <typename T>
class ArenaBuf {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit ArenaBuf(Arena& arena, std::size_t initial_capacity = 64) : arena_(arena) {
    grow(initial_capacity < 1 ? 1 : initial_capacity);
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow(capacity_ * 2);
    data_[size_++] = value;
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
  }

  /// Append `count` uninitialized elements and return them, for a caller
  /// that fills a whole batch at once (possibly from several threads).
  [[nodiscard]] std::span<T> extend(std::size_t count) {
    if (size_ + count > capacity_) grow(std::max(capacity_ * 2, size_ + count));
    const std::span<T> tail(data_ + size_, count);
    size_ += count;
    return tail;
  }

  /// Forget the contents, keep the storage (reuse across loop iterations).
  void clear() noexcept { size_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

  /// Copy out as an exactly-sized vector. The arena storage is reclaimed by
  /// the enclosing ArenaScope, not here.
  [[nodiscard]] std::vector<T> take() const { return std::vector<T>(data_, data_ + size_); }

 private:
  void grow(std::size_t new_capacity) {
    const std::span<T> bigger = arena_.alloc<T>(new_capacity);
    if (size_ != 0) std::copy(data_, data_ + size_, bigger.data());
    data_ = bigger.data();
    capacity_ = new_capacity;
  }

  Arena& arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace tft
