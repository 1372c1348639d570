// AdvisorService: the long-lived front door over CloudScenario
// (DESIGN.md §14). Owns the SessionManager and a default (sessionless)
// scenario, arms per-request deadlines as CancelTokens threaded
// through ObjectiveSpec::cancel, and runs an async solve queue on the
// global ThreadPool with same-session batching.
//
// Cancellation contract: a deadline never makes a solve error out
// mid-flight — solvers treat an observed token like a node-budget
// cutoff and finalize their best incumbent. The service then reports
// status kCancelled / kDeadlineExceeded *with the partial response
// attached* (ServeOutcome::has_response), so a caller on a budget
// still gets the incumbent and its gap certificate. Only a request
// whose deadline expired while still queued comes back without a
// payload.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "serving/session_manager.h"

namespace cloudview {

/// \brief One served request: `status` plus — when `has_response` —
/// the payload, which is present even under Cancelled /
/// DeadlineExceeded (best incumbent, meta.cancelled set).
struct ServeOutcome {
  Status status = Status::OK();
  bool has_response = false;
  AdvisorResponse response;
};

/// \brief Completion handle for SubmitAsync. Wait() helps drain the
/// global pool while blocking, so async serving works at any pool
/// concurrency (including zero workers).
class PendingResponse {
 public:
  /// \brief Blocks until the outcome is ready and returns it.
  ServeOutcome Wait();
  /// \brief Non-blocking readiness probe.
  bool done() const CLOUDVIEW_EXCLUDES(mu_);

 private:
  friend class AdvisorService;
  void Fulfill(ServeOutcome outcome) CLOUDVIEW_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  bool done_ CLOUDVIEW_GUARDED_BY(mu_) = false;
  ServeOutcome outcome_ CLOUDVIEW_GUARDED_BY(mu_);
};

/// \brief Service-level counters (monotone; read with relaxed loads).
struct AdvisorServiceStats {
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_expired_in_queue = 0;
  uint64_t batches = 0;
};

class AdvisorService {
 public:
  struct Options {
    /// Scenario answering sessionless requests.
    ScenarioConfig default_config;
    SessionManager::Options sessions;
    /// Max requests one async drain task serves for a session before
    /// re-queueing itself (bounds pool-task latency for other
    /// sessions).
    size_t batch_max = 8;
  };

  /// \brief Builds the default scenario eagerly so the first
  /// sessionless request doesn't pay lattice construction.
  static Result<std::unique_ptr<AdvisorService>> Create(Options options);

  SessionManager& sessions() { return sessions_; }
  const CloudScenario& default_scenario() const {
    return *default_scenario_;
  }

  /// \brief Serves synchronously on the calling thread. A positive
  /// request.deadline_ms (with no caller-provided token) is armed as a
  /// CancelToken for the dispatch.
  ServeOutcome Serve(const AdvisorRequest& request);

  /// \brief Enqueues onto the async solve queue (global ThreadPool).
  /// Deadlines are armed at submit time, so queue wait counts against
  /// them; a request whose deadline lapses while queued is failed
  /// without solving. Requests for the same session are drained in
  /// FIFO batches (one session Find per batch); distinct sessions
  /// proceed concurrently. The request is copied; its borrowed inline
  /// pointers, if any, must outlive completion.
  std::shared_ptr<PendingResponse> SubmitAsync(AdvisorRequest request);

  AdvisorServiceStats stats() const;

 private:
  explicit AdvisorService(Options options, CloudScenario default_scenario)
      : options_(std::move(options)),
        sessions_(options_.sessions),
        default_scenario_(std::make_unique<CloudScenario>(
            std::move(default_scenario))) {}

  struct QueuedRequest {
    AdvisorRequest request;
    std::shared_ptr<CancelToken> token;
    std::shared_ptr<PendingResponse> pending;
  };

  /// Serves with the token already armed/attached.
  ServeOutcome ServeResolved(const AdvisorRequest& request);
  /// Pops and serves up to batch_max requests for `queue_key`.
  void DrainQueue(const std::string& queue_key);
  void CountOutcome(const ServeOutcome& outcome);

  Options options_;
  SessionManager sessions_;
  std::unique_ptr<CloudScenario> default_scenario_;

  Mutex queue_mu_;
  // Per-session FIFO queues ("" = sessionless); map iteration order is
  // irrelevant, map keeps it deterministic anyway.
  std::map<std::string, std::deque<QueuedRequest>> queues_
      CLOUDVIEW_GUARDED_BY(queue_mu_);
  // Sessions with a drain task scheduled; guards against one session
  // hogging multiple pool slots.
  std::map<std::string, bool> draining_ CLOUDVIEW_GUARDED_BY(queue_mu_);

  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> deadline_expired_in_queue_{0};
  std::atomic<uint64_t> batches_{0};
};

}  // namespace cloudview
