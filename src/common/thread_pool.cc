#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

namespace cloudview {

namespace {

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> pool = std::make_unique<ThreadPool>(
      DefaultConcurrency() > 0 ? DefaultConcurrency() - 1 : 0);
  return pool;
}

}  // namespace

namespace internal {

size_t ParseThreadCount(const char* value, size_t fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed <= 0) return fallback;
  return static_cast<size_t>(parsed);
}

}  // namespace internal

size_t DefaultConcurrency() {
  size_t hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv before any
  // pool exists; nothing in-process calls setenv.
  return internal::ParseThreadCount(std::getenv("CLOUDVIEW_THREADS"),
                                    hardware);
}

ThreadPool::ThreadPool(size_t workers) {
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  ready_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
  // Workers leave only once the queue is empty; this runs anything a
  // still-running task submitted after the last worker left.
  while (TryRunOne()) {
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    task();
    return;
  }
  {
    MutexLock lock(&mu_);
    tasks_.push_back(std::move(task));
  }
  ready_.NotifyOne();
}

bool ThreadPool::TryRunOne() {
  std::function<void()> task;
  {
    MutexLock lock(&mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && tasks_.empty()) ready_.Wait(mu_);
      if (tasks_.empty()) return;  // Stopping, and nothing left to run.
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() { return *GlobalSlot(); }

void ThreadPool::SetGlobalConcurrency(size_t concurrency) {
  GlobalSlot() =
      std::make_unique<ThreadPool>(concurrency > 0 ? concurrency - 1 : 0);
}

namespace internal {

void ParallelForImpl(ThreadPool& pool, size_t n,
                     const std::function<void(size_t)>& body) {
  struct Join {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<bool> failed{false};
    Mutex mu;
    CondVar all_done;
    std::exception_ptr error CLOUDVIEW_GUARDED_BY(mu);
    size_t total = 0;
    const std::function<void(size_t)>* body = nullptr;
  };
  // Shared, so helper tasks that start after the loop already finished
  // (every index claimed) can still touch the join state safely.
  auto join = std::make_shared<Join>();
  join->total = n;
  join->body = &body;

  auto drain = [join] {
    for (;;) {
      size_t i = join->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= join->total) return;
      // After a failure the remaining iterations are skipped but still
      // counted, so the join below terminates promptly.
      if (!join->failed.load(std::memory_order_relaxed)) {
        try {
          (*join->body)(i);
        } catch (...) {
          MutexLock lock(&join->mu);
          if (!join->failed.exchange(true)) {
            join->error = std::current_exception();
          }
        }
      }
      if (join->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          join->total) {
        MutexLock lock(&join->mu);
        join->all_done.NotifyAll();
      }
    }
  };

  // One helper per worker (capped by the iteration count): each is a
  // claim-loop over the same shared index, so helpers that never get
  // scheduled cost nothing and the caller can finish the loop alone.
  size_t helpers = std::min(pool.workers(), n - 1);
  for (size_t h = 0; h < helpers; ++h) pool.Submit(drain);
  drain();  // The caller participates; never parks while work remains.

  while (join->done.load(std::memory_order_acquire) != join->total) {
    // In-flight helpers are running on pool threads; lend a hand with
    // unrelated queued work (e.g. a sibling region's tasks) instead of
    // sleeping the whole wait away. The lock is only held across the
    // short timed waits between help attempts (the predicate reads an
    // atomic, never guarded state).
    if (pool.TryRunOne()) continue;
    MutexLock lock(&join->mu);
    join->all_done.WaitFor(join->mu, std::chrono::milliseconds(1),
                           [&join] {
                             return join->done.load(
                                        std::memory_order_acquire) ==
                                    join->total;
                           });
  }
  if (join->failed.load(std::memory_order_acquire)) {
    std::exception_ptr error;
    {
      MutexLock lock(&join->mu);
      error = join->error;
    }
    std::rethrow_exception(error);
  }
}

}  // namespace internal

}  // namespace cloudview
