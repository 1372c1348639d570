#include "serving/advisor_service.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace cloudview {

ServeOutcome PendingResponse::Wait() {
  // Help the pool along while blocked: when every worker is busy the
  // waiting thread itself runs queued tasks, so SubmitAsync + Wait can
  // never deadlock on pool capacity.
  while (true) {
    {
      MutexLock lock(&mu_);
      if (done_) return outcome_;
    }
    if (!ThreadPool::Global().TryRunOne()) {
      MutexLock lock(&mu_);
      if (done_) return outcome_;
      cv_.WaitFor(mu_, std::chrono::milliseconds(1),
                  [this]() CLOUDVIEW_REQUIRES(mu_) { return done_; });
    }
  }
}

bool PendingResponse::done() const {
  MutexLock lock(&mu_);
  return done_;
}

void PendingResponse::Fulfill(ServeOutcome outcome) {
  {
    MutexLock lock(&mu_);
    done_ = true;
    outcome_ = std::move(outcome);
  }
  cv_.NotifyAll();
}

Result<std::unique_ptr<AdvisorService>> AdvisorService::Create(
    Options options) {
  CV_ASSIGN_OR_RETURN(CloudScenario default_scenario,
                      CloudScenario::Create(options.default_config));
  if (options.batch_max == 0) options.batch_max = 1;
  return std::unique_ptr<AdvisorService>(
      new AdvisorService(std::move(options), std::move(default_scenario)));
}

ServeOutcome AdvisorService::Serve(const AdvisorRequest& request) {
  ServeOutcome outcome;
  if (request.deadline_ms > 0 && request.objective.cancel == nullptr) {
    CancelToken token;
    token.ArmDeadlineAfterMillis(request.deadline_ms);
    AdvisorRequest armed = request;
    armed.objective.cancel = &token;
    outcome = ServeResolved(armed);
  } else {
    outcome = ServeResolved(request);
  }
  CountOutcome(outcome);
  return outcome;
}

ServeOutcome AdvisorService::ServeResolved(const AdvisorRequest& request) {
  ServeOutcome outcome;
  Result<AdvisorResponse> result =
      request.session.empty()
          ? default_scenario_->Dispatch(request)
          : [&]() -> Result<AdvisorResponse> {
              CV_ASSIGN_OR_RETURN(std::shared_ptr<AdvisorSession> session,
                                  sessions_.Find(request.session));
              return session->Serve(request);
            }();
  if (!result.ok()) {
    outcome.status = result.status();
    return outcome;
  }
  outcome.has_response = true;
  outcome.response = std::move(result.value());
  if (outcome.response.meta.cancelled) {
    // Truncated solve: the payload carries the best incumbent and its
    // gap; the status says *why* it was truncated (explicit cancel vs
    // deadline), read off the request's token when one is attached.
    outcome.status =
        request.objective.cancel != nullptr
            ? request.objective.cancel->status()
            : Status::Cancelled("solve truncated by cancellation");
    if (outcome.status.ok()) {
      outcome.status = Status::Cancelled("solve truncated by cancellation");
    }
  }
  return outcome;
}

std::shared_ptr<PendingResponse> AdvisorService::SubmitAsync(
    AdvisorRequest request) {
  QueuedRequest queued;
  queued.pending = std::make_shared<PendingResponse>();
  if (request.deadline_ms > 0 && request.objective.cancel == nullptr) {
    queued.token = std::make_shared<CancelToken>();
    // Armed at submit: time spent queued counts against the deadline.
    queued.token->ArmDeadlineAfterMillis(request.deadline_ms);
    request.objective.cancel = queued.token.get();
  }
  queued.request = std::move(request);
  std::shared_ptr<PendingResponse> handle = queued.pending;

  const std::string key = queued.request.session;
  bool schedule = false;
  {
    MutexLock lock(&queue_mu_);
    queues_[key].push_back(std::move(queued));
    if (!draining_[key]) {
      draining_[key] = true;
      schedule = true;
    }
  }
  if (schedule) {
    ThreadPool::Global().Submit([this, key]() { DrainQueue(key); });
  }
  return handle;
}

void AdvisorService::DrainQueue(const std::string& queue_key) {
  // Pop one batch under the lock, serve it outside. Same-session
  // requests share the session lookup and run back-to-back against a
  // hot warm slot; other sessions' drains proceed on other pool tasks.
  std::vector<QueuedRequest> batch;
  {
    MutexLock lock(&queue_mu_);
    std::deque<QueuedRequest>& queue = queues_[queue_key];
    while (!queue.empty() && batch.size() < options_.batch_max) {
      batch.push_back(std::move(queue.front()));
      queue.pop_front();
    }
  }
  batches_.fetch_add(1, std::memory_order_relaxed);

  for (QueuedRequest& queued : batch) {
    ServeOutcome outcome;
    if (queued.token != nullptr && queued.token->cancelled() &&
        queued.token->status().IsDeadlineExceeded()) {
      // Expired while queued: fail fast, never start the solve.
      outcome.status = Status::DeadlineExceeded(
          "deadline of " + std::to_string(queued.request.deadline_ms) +
          " ms expired while the request was queued");
      deadline_expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
    } else {
      outcome = ServeResolved(queued.request);
    }
    CountOutcome(outcome);
    queued.pending->Fulfill(std::move(outcome));
  }

  bool reschedule = false;
  {
    MutexLock lock(&queue_mu_);
    if (queues_[queue_key].empty()) {
      draining_[queue_key] = false;
    } else {
      reschedule = true;
    }
  }
  if (reschedule) {
    ThreadPool::Global().Submit(
        [this, queue_key]() { DrainQueue(queue_key); });
  }
}

void AdvisorService::CountOutcome(const ServeOutcome& outcome) {
  served_.fetch_add(1, std::memory_order_relaxed);
  if (outcome.status.IsCancelled() ||
      outcome.status.IsDeadlineExceeded()) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  } else if (!outcome.status.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
}

AdvisorServiceStats AdvisorService::stats() const {
  AdvisorServiceStats stats;
  stats.served = served_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.deadline_expired_in_queue =
      deadline_expired_in_queue_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace cloudview
