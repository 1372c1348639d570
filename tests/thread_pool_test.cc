// ThreadPool / ParallelFor contract tests: degenerate sizes, full index
// coverage, result ordering, nesting, submit-from-worker, FIFO task
// order, the destruction drain, the exception contract, and the
// CLOUDVIEW_THREADS parsing the global pool is sized from.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cloudview {
namespace {

TEST(ParseThreadCount, PositiveIntegerWins) {
  EXPECT_EQ(internal::ParseThreadCount("1", 7), 1u);
  EXPECT_EQ(internal::ParseThreadCount("8", 7), 8u);
  EXPECT_EQ(internal::ParseThreadCount("64", 7), 64u);
}

TEST(ParseThreadCount, GarbageFallsBack) {
  EXPECT_EQ(internal::ParseThreadCount(nullptr, 7), 7u);
  EXPECT_EQ(internal::ParseThreadCount("", 7), 7u);
  EXPECT_EQ(internal::ParseThreadCount("0", 7), 7u);
  EXPECT_EQ(internal::ParseThreadCount("-3", 7), 7u);
  EXPECT_EQ(internal::ParseThreadCount("eight", 7), 7u);
  EXPECT_EQ(internal::ParseThreadCount("4x", 7), 7u);
}

TEST(ThreadPool, ZeroWorkersDegeneratesToSerial) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);

  // ParallelFor runs inline on the caller; the body sees a consistent
  // serial order (index monotonicity is only guaranteed here).
  std::vector<size_t> order;
  ParallelFor(pool, 10, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  // Submit on a worker-less pool runs inline too.
  bool ran = false;
  pool.Submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, OneWorkerCoversAllIndices) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  ParallelFor(pool, 100, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(7);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, CallerObservesIterationWrites) {
  // Completion is an acquire/release barrier: plain (non-atomic) writes
  // made inside iterations are visible after ParallelFor returns.
  ThreadPool pool(4);
  std::vector<int> out(512, 0);
  ParallelFor(pool, out.size(), [&](size_t i) {
    out[i] = static_cast<int>(i) * 3;
  });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A worker that hits an inner ParallelFor must help drain it itself,
  // even when every other worker is busy in the same position.
  for (size_t workers : {0u, 1u, 3u}) {
    ThreadPool pool(workers);
    std::atomic<int> cells{0};
    ParallelFor(pool, 8, [&](size_t) {
      ParallelFor(pool, 16, [&](size_t) { cells.fetch_add(1); });
    });
    EXPECT_EQ(cells.load(), 8 * 16) << workers << " workers";
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(
      ParallelFor(pool, 100,
                  [&](size_t i) {
                    if (i == 37) throw std::runtime_error("boom at 37");
                  }),
      std::runtime_error);

  // The pool survives a failed loop and runs later work normally.
  std::atomic<int> sum{0};
  ParallelFor(pool, 50, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 1225);
}

TEST(ThreadPool, ExceptionSkipsRemainingIterations) {
  // After the first throw, not-yet-started iterations are skipped (the
  // loop drains fast instead of running a poisoned body to the end).
  ThreadPool pool(0);  // Serial: iteration order is 0, 1, 2, ...
  std::atomic<int> executed{0};
  EXPECT_THROW(ParallelFor(pool, 1000,
                           [&](size_t i) {
                             executed.fetch_add(1);
                             if (i == 3) throw std::runtime_error("stop");
                           }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 4);  // 0..3 ran; 4..999 skipped.
}

TEST(ThreadPool, SubmitFromWorkerIsStealable) {
  // Tasks submitted from inside a running iteration join the pool's
  // one queue; any worker, or the caller's TryRunOne, may run them.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::atomic<int> follow_ups{0};
  ParallelFor(pool, 4, [&](size_t) {
    pool.Submit([&] { follow_ups.fetch_add(1); });
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 4);
  // The follow-ups are fire-and-forget; drain them deterministically.
  while (pool.TryRunOne()) {
  }
  // Destruction would also drain; by here all four either ran on a
  // worker or were just drained.
  while (follow_ups.load() < 4) std::this_thread::yield();
  EXPECT_EQ(follow_ups.load(), 4);
}

// Parks `pool`'s only worker on a task that spins until `release` is
// set, and returns once that task has started.
void ParkOnlyWorker(ThreadPool& pool, std::atomic<bool>& release) {
  std::atomic<bool> started{false};
  pool.Submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
}

TEST(ThreadPool, SubmittedTasksRunInFifoOrder) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  ParkOnlyWorker(pool, release);
  // The worker is busy, so only this thread runs the queued tasks.
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  while (pool.TryRunOne()) {
  }
  release.store(true);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, DestructionRunsQueuedTasks) {
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    ParkOnlyWorker(pool, release);
    for (int i = 0; i < 8; ++i) pool.Submit([&] { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0);
    release.store(true);
  }  // ~ThreadPool: the worker finishes the queue, then joins.
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, GlobalConcurrencyIsAdjustable) {
  size_t original = ThreadPool::Global().concurrency();
  ThreadPool::SetGlobalConcurrency(4);
  EXPECT_EQ(ThreadPool::Global().concurrency(), 4u);
  EXPECT_EQ(ThreadPool::Global().workers(), 3u);
  ThreadPool::SetGlobalConcurrency(1);
  EXPECT_EQ(ThreadPool::Global().concurrency(), 1u);
  EXPECT_EQ(ThreadPool::Global().workers(), 0u);
  ThreadPool::SetGlobalConcurrency(original);
  EXPECT_EQ(ThreadPool::Global().concurrency(), original);
}

TEST(ThreadPool, DefaultConcurrencyIsPositive) {
  EXPECT_GE(DefaultConcurrency(), 1u);
}

}  // namespace
}  // namespace cloudview
