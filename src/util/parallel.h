#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

/// \file parallel.h
/// Deterministic fixed-size thread pool with `parallel_for` /
/// `parallel_reduce`, the execution layer under the trial harnesses and the
/// triangle kernels.
///
/// Determinism contract: every result is bit-identical at any thread count,
/// including 1. Two mechanisms deliver this:
///   * chunk boundaries depend only on (n, grain), never on the thread
///     count or on scheduling — only *which worker* executes a chunk varies;
///   * `parallel_reduce` stores one partial per chunk and folds them
///     serially in chunk order, so even non-associative (floating-point)
///     combines reproduce exactly.
/// Randomized work must derive its stream counter-style from the work-item
/// index (see `derive_rng` in util/rng.h), not from a shared mutating Rng.
///
/// Nested parallel calls (a `parallel_for` body invoking another parallel
/// primitive) run the inner call serially on the calling worker; this keeps
/// the pool deadlock-free and the chunk decomposition — hence the results —
/// unchanged.

namespace tft {

/// Number of hardware threads, at least 1.
[[nodiscard]] int hardware_threads() noexcept;

/// Sets the default worker count for the global pool; 0 (the initial value)
/// means "all hardware threads". This is what the benches' `--threads` flag
/// plumbs through. Safe to call while other threads run parallel work: they
/// finish on the pool they already hold, and later calls pick up the new
/// size.
void set_default_threads(int threads);

/// The resolved default worker count (>= 1).
[[nodiscard]] int default_threads() noexcept;

/// True while the current thread is executing inside a parallel region;
/// parallel primitives degrade to serial execution when set.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Fixed-size pool. Workers park on a condition variable between regions;
/// the calling thread always participates as worker 0, so `ThreadPool(1)`
/// spawns no threads at all.
class ThreadPool {
 public:
  /// `threads` is the total worker count including the caller; values < 1
  /// are clamped to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count including the calling thread.
  [[nodiscard]] int size() const noexcept { return static_cast<int>(threads_.size()) + 1; }

  /// Runs job(worker_index) once per worker, concurrently, and returns when
  /// all invocations have completed. The job must not throw. Safe to call
  /// from several threads at once: submitters take turns, one region at a
  /// time, so each caller's job runs on the whole pool.
  void run_on_workers(const std::function<void(int)>& job);

  /// The process-wide pool, sized to `default_threads()`. There is one pool
  /// per size ever requested, created on first use and kept until exit, so
  /// a reference stays valid after `set_default_threads` changes the size.
  [[nodiscard]] static ThreadPool& global();

 private:
  void worker_loop(int index);

  std::vector<std::thread> threads_;
  std::mutex submit_mutex_;  // held by the one submitter whose job owns the slot below
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  int running_ = 0;
  bool stop_ = false;
};

namespace detail {

/// Grain resolution shared by all primitives. Auto grain (0) targets ~4
/// chunks per default worker but is computed from a fixed constant so the
/// decomposition never depends on the runtime thread count.
[[nodiscard]] constexpr std::size_t resolve_grain(std::size_t n, std::size_t grain) noexcept {
  constexpr std::size_t kMaxChunks = 64;
  if (grain == 0) grain = n > kMaxChunks ? (n + kMaxChunks - 1) / kMaxChunks : 1;
  return grain;
}

/// Dispatches chunk indices [0, num_chunks) to the global pool via an
/// atomic cursor. body(chunk) may run on any worker; each chunk runs
/// exactly once.
template <typename Body>
void for_chunks(std::size_t num_chunks, Body&& body) {
  if (num_chunks == 0) return;
  ThreadPool& pool = ThreadPool::global();
  if (num_chunks == 1 || pool.size() == 1 || in_parallel_region()) {
    for (std::size_t c = 0; c < num_chunks; ++c) body(c);
    return;
  }
  std::atomic<std::size_t> next{0};
  pool.run_on_workers([&](int) {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed); c < num_chunks;
         c = next.fetch_add(1, std::memory_order_relaxed)) {
      body(c);
    }
  });
}

}  // namespace detail

/// Work units (sampled draws, edges) a chunk should carry at least. A job
/// below it runs as one chunk, inline on the calling thread, and never takes
/// the pool's submit mutex; a constant, so chunk boundaries stay independent
/// of the thread count.
inline constexpr std::size_t kMinChunkWork = std::size_t{1} << 15;

/// Grain for n items that together carry `work` units, so that each chunk
/// carries at least kMinChunkWork of them.
[[nodiscard]] constexpr std::size_t grain_for_work(std::size_t n, std::size_t work) noexcept {
  if (work <= kMinChunkWork) return n > 0 ? n : 1;
  return (n * kMinChunkWork + work - 1) / work;
}

/// Invokes fn(i) for every i in [0, n), fanned across the global pool.
/// fn must be safe to call concurrently for distinct i.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  const std::size_t g = detail::resolve_grain(n, grain);
  const std::size_t chunks = n == 0 ? 0 : (n + g - 1) / g;
  detail::for_chunks(chunks, [&](std::size_t c) {
    const std::size_t end = std::min(n, (c + 1) * g);
    for (std::size_t i = c * g; i < end; ++i) fn(i);
  });
}

/// Deterministic reduction: partials[c] = map(chunk_begin, chunk_end), then
/// acc = combine(acc, partials[c]) serially in chunk order starting from
/// `identity`. Bit-identical at any thread count, even for floating-point
/// combines.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(std::size_t n, T identity, Map&& map, Combine&& combine,
                                std::size_t grain = 0) {
  if (n == 0) return identity;
  const std::size_t g = detail::resolve_grain(n, grain);
  const std::size_t chunks = (n + g - 1) / g;
  std::vector<T> partial(chunks, identity);
  detail::for_chunks(chunks,
                     [&](std::size_t c) { partial[c] = map(c * g, std::min(n, (c + 1) * g)); });
  T acc = std::move(identity);
  for (std::size_t c = 0; c < chunks; ++c) acc = combine(std::move(acc), std::move(partial[c]));
  return acc;
}

}  // namespace tft
