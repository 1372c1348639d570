// Thread pool and the ParallelFor primitive. In the library the pool
// serves the advisor's async request queue (AdvisorService::SubmitAsync,
// through Submit); no single request fans out on it (DESIGN.md §9).
//
// Tasks are plain std::function thunks on one FIFO queue under one
// mutex: workers and TryRunOne callers take the oldest task first. The
// pool is a fixed set of std::threads over std::mutex /
// std::condition_variable — no dependencies beyond the standard
// library.
//
// Concurrency convention: a "concurrency of N" means N threads make
// progress on a parallel region — the N-1 pool workers plus the caller,
// which always participates (ParallelFor never parks the calling
// thread while work remains). Concurrency 1 therefore degenerates to a
// plain serial loop with no pool traffic at all, which is what makes
// `CLOUDVIEW_THREADS=1` a bit-exact single-threaded reference run.
//
// Determinism: ParallelFor guarantees every index is executed exactly
// once and the caller observes all writes made by iteration bodies
// (completion is an acquire/release barrier). It does NOT order
// iterations; parallel callers must keep iteration bodies independent
// and reduce by index afterwards, never by arrival.
//
// Nesting is safe: a worker that hits a nested ParallelFor claims that
// loop's iterations itself and helps drain them, so inner loops never
// deadlock waiting for the pool, even at concurrency 1.
//
// Exception contract: the first exception thrown by an iteration is
// captured, remaining not-yet-started iterations are skipped, and the
// exception is rethrown on the calling thread once in-flight
// iterations finish.

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cloudview {

namespace internal {
/// \brief Parses a CLOUDVIEW_THREADS-style value: a positive integer is
/// taken as-is; null, empty, zero, or garbage yields `fallback`.
size_t ParseThreadCount(const char* value, size_t fallback);
}  // namespace internal

/// \brief The process-wide parallelism the global pool is sized to:
/// CLOUDVIEW_THREADS when set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (at least 1).
size_t DefaultConcurrency();

/// \brief Fixed-size pool of worker threads over one FIFO task queue.
///
/// Thread-safe: Submit may be called from any thread, including from
/// inside a running task. Destruction joins the workers, then runs
/// whatever is still queued on the destroying thread.
class ThreadPool {
 public:
  /// \brief Spawns `workers` threads. Zero workers is valid: Submit
  /// then runs each task inline, and ParallelFor degenerates to a
  /// serial loop.
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Number of pool worker threads.
  size_t workers() const { return threads_.size(); }
  /// \brief Threads a parallel region can occupy: the workers plus the
  /// calling thread (which always participates).
  size_t concurrency() const { return threads_.size() + 1; }

  /// \brief Appends `task` to the queue and wakes one worker; with
  /// zero workers it runs `task` inline instead.
  void Submit(std::function<void()> task) CLOUDVIEW_EXCLUDES(mu_);

  /// \brief Runs the oldest queued task on the calling thread, if any.
  /// Returns false when the queue is empty. Lets blocked joiners help
  /// drain the pool.
  bool TryRunOne() CLOUDVIEW_EXCLUDES(mu_);

  /// \brief The shared process pool, lazily sized to
  /// DefaultConcurrency() - 1 workers (the caller is the extra thread).
  static ThreadPool& Global();

  /// \brief Resizes the global pool to `concurrency` total threads
  /// (n - 1 workers; 0 and 1 both mean no workers). Joins the old
  /// pool's workers first. NOT safe to call concurrently with running
  /// parallel regions — call it from the main thread between regions
  /// (tests and bench sweeps do).
  static void SetGlobalConcurrency(size_t concurrency);

 private:
  void WorkerLoop() CLOUDVIEW_EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_;
  CondVar ready_;
  std::deque<std::function<void()>> tasks_ CLOUDVIEW_GUARDED_BY(mu_);
  bool stopping_ CLOUDVIEW_GUARDED_BY(mu_) = false;
};

namespace internal {
/// Type-erased core of ParallelFor (keeps the template thin).
void ParallelForImpl(ThreadPool& pool, size_t n,
                     const std::function<void(size_t)>& body);
}  // namespace internal

/// \brief Runs body(0) ... body(n-1) on up to pool.concurrency()
/// threads (caller included) and returns when all have finished.
/// Iterations must be independent; see the header comment for the
/// determinism and exception contracts.
template <typename Fn>
void ParallelFor(ThreadPool& pool, size_t n, Fn&& body) {
  if (n == 0) return;
  if (pool.workers() == 0 || n == 1) {
    // Degenerate serially with zero overhead (and zero scheduling
    // nondeterminism) — the CLOUDVIEW_THREADS=1 reference path.
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::function<void(size_t)> erased = std::ref(body);
  internal::ParallelForImpl(pool, n, erased);
}

/// \brief ParallelFor on the global pool.
template <typename Fn>
void ParallelFor(size_t n, Fn&& body) {
  ParallelFor(ThreadPool::Global(), n, std::forward<Fn>(body));
}

}  // namespace cloudview
