#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/triangles.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace tft {
namespace {

/// Runs fn under a pool of `threads` workers, restoring the previous
/// default afterwards so tests don't leak pool configuration.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  const int prev = default_threads();
  set_default_threads(threads);
  auto result = fn();
  set_default_threads(prev);
  return result;
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    auto counts = with_threads(threads, [] {
      std::vector<std::atomic<int>> hit(1000);
      parallel_for(hit.size(), [&](std::size_t i) { hit[i].fetch_add(1); });
      std::vector<int> out;
      for (const auto& h : hit) out.push_back(h.load());
      return out;
    });
    for (const int c : counts) EXPECT_EQ(c, 1) << "threads=" << threads;
  }
}

TEST(Parallel, ReduceMatchesSerialSum) {
  const std::size_t n = 100000;
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < n; ++i) expect += i * i;
  for (const int threads : {1, 2, 8}) {
    const auto got = with_threads(threads, [&] {
      return parallel_reduce(
          n, std::uint64_t{0},
          [](std::size_t b, std::size_t e) {
            std::uint64_t s = 0;
            for (std::size_t i = b; i < e; ++i) s += static_cast<std::uint64_t>(i) * i;
            return s;
          },
          [](std::uint64_t a, std::uint64_t b) { return a + b; });
    });
    EXPECT_EQ(got, expect) << "threads=" << threads;
  }
}

TEST(Parallel, FloatReduceIsBitIdenticalAcrossThreadCounts) {
  // The determinism contract: chunking and fold order depend only on
  // (n, grain), so even non-associative float accumulation agrees bitwise.
  const std::size_t n = 37777;
  const auto run = [&](int threads) {
    return with_threads(threads, [&] {
      return parallel_reduce(
          n, 0.0,
          [](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t i = b; i < e; ++i) s += std::sin(static_cast<double>(i)) / 3.0;
            return s;
          },
          [](double a, double b) { return a + b; });
    });
  };
  const double at1 = run(1);
  EXPECT_EQ(at1, run(2));
  EXPECT_EQ(at1, run(8));
}

TEST(Parallel, DerivedRngStreamsAreThreadCountInvariant) {
  // Per-trial rngs are a pure function of (seed, trial), so the draws a
  // trial sees cannot depend on scheduling.
  const std::uint64_t seed = 0xFEED;
  std::vector<std::uint64_t> serial(64);
  for (std::size_t t = 0; t < serial.size(); ++t) {
    Rng rng = derive_rng(seed, t);
    serial[t] = rng() ^ rng();
  }
  for (const int threads : {2, 8}) {
    const auto par = with_threads(threads, [&] {
      std::vector<std::uint64_t> out(64);
      parallel_for(
          out.size(),
          [&](std::size_t t) {
            Rng rng = derive_rng(seed, t);
            out[t] = rng() ^ rng();
          },
          /*grain=*/1);
      return out;
    });
    EXPECT_EQ(par, serial) << "threads=" << threads;
  }
}

TEST(Parallel, DistinctTrialsGetDistinctStreams) {
  Rng a = derive_rng(1, 0);
  Rng b = derive_rng(1, 1);
  Rng c = derive_rng(2, 0);
  const std::uint64_t xa = a(), xb = b(), xc = c();
  EXPECT_NE(xa, xb);
  EXPECT_NE(xa, xc);
  EXPECT_NE(xb, xc);
}

TEST(Parallel, NestedParallelCallsDegradeToSerial) {
  const auto got = with_threads(8, [] {
    return parallel_reduce(
        16, std::uint64_t{0},
        [](std::size_t ob, std::size_t oe) {
          std::uint64_t s = 0;
          for (std::size_t i = ob; i < oe; ++i) {
            // Inner call from a worker must not deadlock; it runs serially.
            s += parallel_reduce(
                8, std::uint64_t{0},
                [i](std::size_t b, std::size_t e) {
                  std::uint64_t inner = 0;
                  for (std::size_t j = b; j < e; ++j) inner += i + j;
                  return inner;
                },
                [](std::uint64_t a, std::uint64_t b) { return a + b; });
          }
          return s;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  });
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < 8; ++j) expect += i + j;
  EXPECT_EQ(got, expect);
}

TEST(Parallel, ConcurrentSubmittersEachRunTheirJobOncePerWorker) {
  // Several threads share one pool, as concurrent service sessions share the
  // global pool. Every region must see each worker index exactly once.
  ThreadPool pool(4);
  std::atomic<int> bad{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int region = 0; region < 300; ++region) {
        std::vector<std::atomic<int>> hit(static_cast<std::size_t>(pool.size()));
        pool.run_on_workers([&](int w) { hit[static_cast<std::size_t>(w)].fetch_add(1); });
        for (const auto& h : hit) {
          if (h.load() != 1) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(Parallel, ConcurrentReducesOnTheGlobalPoolAreExact) {
  const std::size_t n = 5000;
  const std::uint64_t expect = n * (n - 1) / 2;
  const auto sums = with_threads(4, [&] {
    std::vector<std::uint64_t> got(4 * 100);
    std::vector<std::thread> submitters;
    for (std::size_t s = 0; s < 4; ++s) {
      submitters.emplace_back([&, s] {
        for (std::size_t r = 0; r < 100; ++r) {
          got[s * 100 + r] = parallel_reduce(
              n, std::uint64_t{0},
              [](std::size_t b, std::size_t e) {
                std::uint64_t sum = 0;
                for (std::size_t i = b; i < e; ++i) sum += i;
                return sum;
              },
              [](std::uint64_t a, std::uint64_t b) { return a + b; });
        }
      });
    }
    for (auto& t : submitters) t.join();
    return got;
  });
  for (const std::uint64_t got : sums) EXPECT_EQ(got, expect);
}

TEST(Parallel, CountTrianglesMatchesAtEveryThreadCount) {
  Rng rng(5);
  const Graph random = gen::gnp(600, 0.05, rng);
  const Graph planted = gen::planted_triangles(900, 120, rng);
  const Graph hub = gen::hub_matching(500, 3, rng);
  const Graph dense = gen::gnp(120, 0.9, rng);  // adversarially dense rows
  for (const Graph* g : {&random, &planted, &hub, &dense}) {
    const auto serial = with_threads(1, [&] { return count_triangles(*g); });
    for (const int threads : {2, 8}) {
      EXPECT_EQ(with_threads(threads, [&] { return count_triangles(*g); }), serial)
          << "threads=" << threads;
    }
  }
}

TEST(Parallel, PackingIsThreadCountInvariant) {
  // The packing lists its closures in parallel before the serial greedy
  // pass; the graphs are big enough that the listing spans many chunks, and
  // the packing must not depend on which worker ran which chunk.
  Rng g_rng(11);
  const Graph random = gen::gnp(4000, 0.02, g_rng);
  const Graph skewed = gen::chung_lu(4000, 30.0, 2.2, g_rng);
  for (const Graph* g : {&random, &skewed}) {
    const auto at = [&](int threads) {
      return with_threads(threads, [&] {
        Rng rng(3);
        auto packing = greedy_triangle_packing(*g, rng);
        return std::make_pair(packing, rng.below(std::uint64_t{1} << 30));
      });
    };
    const auto serial = at(1);
    ASSERT_FALSE(serial.first.empty());
    for (const int threads : {2, 8}) {
      const auto par = at(threads);
      EXPECT_EQ(par.first, serial.first) << "threads=" << threads;
      EXPECT_EQ(par.second, serial.second) << "threads=" << threads;
    }
  }
}

TEST(Parallel, PackingInsideAParallelRegionMatchesTopLevel) {
  // mu_distribution calls the packing from parallel_for bodies, where the
  // pool runs the packing's own parallel listing inline on the worker.
  Rng g_rng(12);
  const Graph g = gen::gnp(1500, 0.03, g_rng);
  constexpr std::size_t kCalls = 8;
  std::vector<std::vector<Triangle>> top(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    Rng rng(100 + i);
    top[i] = greedy_triangle_packing(g, rng);
  }
  const auto nested = with_threads(4, [&] {
    std::vector<std::vector<Triangle>> out(kCalls);
    parallel_for(
        kCalls,
        [&](std::size_t i) {
          Rng rng(100 + i);
          out[i] = greedy_triangle_packing(g, rng);
        },
        1);
    return out;
  });
  for (std::size_t i = 0; i < kCalls; ++i) EXPECT_EQ(nested[i], top[i]) << "call " << i;
}

TEST(Parallel, ResizingTheGlobalPoolWhileItRunsIsSafe) {
  // Two threads run parallel work while one of them keeps flipping the
  // default size between its calls, so each one asks for the global pool
  // while the other may still be running on the previous one. A caller
  // must be able to finish on the pool it already holds.
  constexpr std::size_t n = 4096;
  const auto run_checked = [&] {
    std::vector<std::uint32_t> hit(n, 0);
    parallel_for(n, [&](std::size_t i) { hit[i] += 1; });
    EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), std::uint64_t{0}), n);
    const std::uint64_t sum = parallel_reduce(
        n, std::uint64_t{0},
        [](std::size_t b, std::size_t e) {
          std::uint64_t s = 0;
          for (std::size_t i = b; i < e; ++i) s += i;
          return s;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum, std::uint64_t{n} * (n - 1) / 2);
  };
  const int prev = default_threads();
  std::atomic<bool> done{false};
  std::thread flipper([&] {
    for (int i = 0; !done.load(std::memory_order_relaxed); ++i) {
      set_default_threads(i % 2 == 0 ? 2 : 4);
      run_checked();
    }
  });
  for (int round = 0; round < 400; ++round) run_checked();
  done.store(true, std::memory_order_relaxed);
  flipper.join();
  set_default_threads(prev);
}

TEST(Parallel, ZeroAndTinySizes) {
  for (const int threads : {1, 8}) {
    with_threads(threads, [] {
      parallel_for(0, [](std::size_t) { FAIL() << "fn called for n=0"; });
      std::atomic<int> hits{0};
      parallel_for(1, [&](std::size_t) { hits.fetch_add(1); });
      EXPECT_EQ(hits.load(), 1);
      EXPECT_EQ(parallel_reduce(
                    0, 42, [](std::size_t, std::size_t) { return 0; },
                    [](int a, int b) { return a + b; }),
                42);
      return 0;
    });
  }
}

}  // namespace
}  // namespace tft
