#include "util/parallel.h"

#include <map>
#include <memory>

namespace tft {

namespace {

std::atomic<int> g_default_threads{0};  // 0 = all hardware threads
// One pool per size ever requested, each kept until exit: a caller that
// still holds the pool it got before set_default_threads changed the size
// keeps using it safely, and flipping between sizes reuses the same pools.
std::map<int, std::unique_ptr<ThreadPool>> g_pools;
std::mutex g_pool_mutex;

thread_local bool t_in_parallel_region = false;

/// RAII flag so nested parallel primitives degrade to serial execution.
struct RegionGuard {
  RegionGuard() noexcept { t_in_parallel_region = true; }
  ~RegionGuard() noexcept { t_in_parallel_region = false; }
};

}  // namespace

int hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void set_default_threads(int threads) {
  g_default_threads.store(threads < 0 ? 0 : threads, std::memory_order_relaxed);
}

int default_threads() noexcept {
  const int threads = g_default_threads.load(std::memory_order_relaxed);
  return threads > 0 ? threads : hardware_threads();
}

bool in_parallel_region() noexcept { return t_in_parallel_region; }

ThreadPool::ThreadPool(int threads) {
  const int extra = (threads < 1 ? 1 : threads) - 1;
  threads_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_on_workers(const std::function<void(int)>& job) {
  if (threads_.empty()) {
    RegionGuard guard;
    job(0);
    return;
  }
  // One job slot: a second submitter must not overwrite job_/running_ while
  // workers still run the first one's job.
  std::lock_guard submit(submit_mutex_);
  {
    std::lock_guard lk(mutex_);
    job_ = &job;
    ++epoch_;
    running_ = static_cast<int>(threads_.size());
  }
  work_cv_.notify_all();
  {
    RegionGuard guard;
    job(0);
  }
  std::unique_lock lk(mutex_);
  done_cv_.wait(lk, [this] { return running_ == 0; });
  job_ = nullptr;
}

void ThreadPool::worker_loop(int index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock lk(mutex_);
      work_cv_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    {
      RegionGuard guard;
      (*job)(index);
    }
    {
      std::lock_guard lk(mutex_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  const int want = default_threads();
  std::lock_guard lk(g_pool_mutex);
  std::unique_ptr<ThreadPool>& pool = g_pools[want];
  if (!pool) pool = std::make_unique<ThreadPool>(want);
  return *pool;
}

}  // namespace tft
