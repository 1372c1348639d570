// Cancellation and deadline semantics (DESIGN.md §14): token state
// machine, cancelled solves keeping their best incumbent + gap
// deterministically at any thread count, and the service-level status
// contract (kCancelled / kDeadlineExceeded with the partial payload
// attached; queue-expired requests failed without solving).

#include "common/cancellation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/scenario.h"
#include "serving/advisor_codec.h"
#include "serving/advisor_service.h"
#include "serving/json.h"

namespace cloudview {
namespace {

ScenarioConfig SmallConfig() {
  ScenarioConfig config;
  config.candidates.max_candidates = 8;
  config.candidates.max_rows_fraction = 0.05;
  return config;
}

ObjectiveSpec LooseBudgetSpec() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = Money::FromMicros(50'000'000);
  return spec;
}

TEST(CancelToken, ExplicitCancelReportsCancelled) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.status().IsCancelled());
}

TEST(CancelToken, ExpiredDeadlineReportsDeadlineExceeded) {
  CancelToken token;
  token.ArmDeadlineAfterMillis(0);  // Already expired.
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.status().IsDeadlineExceeded());
}

TEST(CancelToken, ExpiredDeadlineWinsOverExplicitCancel) {
  CancelToken token;
  token.ArmDeadlineAfterMillis(0);
  token.Cancel();
  EXPECT_TRUE(token.status().IsDeadlineExceeded());
}

TEST(CancelToken, FutureDeadlineStaysLive) {
  CancelToken token;
  token.ArmDeadlineAfterMillis(60'000);
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
}

// A pre-cancelled token makes every solver truncate at its first poll,
// so the cancelled result is a pure function of the instance — the
// strongest determinism check that needs no timing control.
TEST(Cancellation, CancelledBranchAndBoundIsDeterministicAcrossThreads) {
  CloudScenario scenario =
      CloudScenario::Create(SmallConfig()).MoveValue();
  Workload workload = scenario.DefaultWorkload().MoveValue();

  CancelToken token;
  token.Cancel();
  ObjectiveSpec spec = LooseBudgetSpec();
  spec.cancel = &token;

  const AdvisorRequest request{.kind = AdvisorRequestKind::kSolve,
                               .solver = "branch-and-bound",
                               .objective = spec,
                               .inline_workload = &workload};
  ThreadPool::SetGlobalConcurrency(1);
  SolveRun one = scenario.Dispatch(request).MoveValue().solve;
  ThreadPool::SetGlobalConcurrency(8);
  SolveRun eight = scenario.Dispatch(request).MoveValue().solve;
  ThreadPool::SetGlobalConcurrency(1);

  EXPECT_TRUE(one.selection.cancelled);
  EXPECT_TRUE(eight.selection.cancelled);
  // Best incumbent and gap certificate are carried...
  EXPECT_GE(one.selection.gap_fraction, 0.0);
  // ...and bit-identical at any concurrency.
  EXPECT_EQ(one.selection.evaluation.selected,
            eight.selection.evaluation.selected);
  EXPECT_EQ(one.selection.evaluation.cost.total().micros(),
            eight.selection.evaluation.cost.total().micros());
  EXPECT_EQ(std::memcmp(&one.selection.gap_fraction,
                        &eight.selection.gap_fraction, sizeof(double)),
            0);
}

// The temporal walk polls the token at each period head: a pre-fired
// token stops it before period 0, for a lone walk and for every policy
// of a comparison, and Dispatch reports the truncation.
TEST(Cancellation, CancelledTimelineStopsAtThePeriodHead) {
  CloudScenario scenario =
      CloudScenario::Create(SmallConfig()).MoveValue();
  CancelToken token;
  token.Cancel();
  ObjectiveSpec spec = LooseBudgetSpec();
  spec.cancel = &token;

  AdvisorRequest timeline{.kind = AdvisorRequestKind::kTimeline,
                          .objective = spec,
                          .policy = ReselectPolicy::EveryK(1)};
  timeline.timeline.num_periods = 4;
  AdvisorResponse walked = scenario.Dispatch(timeline).MoveValue();
  EXPECT_TRUE(walked.meta.cancelled);
  EXPECT_TRUE(walked.timeline.ledger.empty());
  EXPECT_EQ(walked.timeline.solver_runs, 0u);

  AdvisorRequest compare{.kind = AdvisorRequestKind::kComparePolicies,
                         .objective = spec};
  compare.timeline.num_periods = 4;
  compare.policies = {ReselectPolicy::Static(), ReselectPolicy::EveryK(1),
                      ReselectPolicy::OnDrift(0.25)};
  AdvisorResponse compared = scenario.Dispatch(compare).MoveValue();
  EXPECT_TRUE(compared.meta.cancelled);
  ASSERT_EQ(compared.policies.size(), compare.policies.size());
  for (const TemporalRunResult& run : compared.policies) {
    EXPECT_TRUE(run.ledger.empty()) << run.policy.Name();
    EXPECT_EQ(run.fresh_solves, 0u) << run.policy.Name();
  }
}

TEST(Cancellation, ServiceReportsCancelledWithIncumbentPayload) {
  AdvisorService::Options options;
  options.default_config = SmallConfig();
  std::unique_ptr<AdvisorService> service =
      AdvisorService::Create(std::move(options)).MoveValue();

  CancelToken token;
  token.Cancel();
  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kSolve;
  request.solver = "branch-and-bound";
  request.objective = LooseBudgetSpec();
  request.objective.cancel = &token;

  ServeOutcome outcome = service->Serve(request);
  EXPECT_TRUE(outcome.status.IsCancelled()) << outcome.status;
  ASSERT_TRUE(outcome.has_response);
  EXPECT_TRUE(outcome.response.meta.cancelled);
  EXPECT_EQ(service->stats().cancelled, 1u);
}

TEST(Cancellation, ServiceReportsDeadlineExceededWithPayload) {
  AdvisorService::Options options;
  options.default_config = SmallConfig();
  std::unique_ptr<AdvisorService> service =
      AdvisorService::Create(std::move(options)).MoveValue();

  CancelToken token;
  token.ArmDeadlineAfterMillis(0);  // Expired before the solve starts.
  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kSolve;
  request.objective = LooseBudgetSpec();
  request.objective.cancel = &token;

  ServeOutcome outcome = service->Serve(request);
  EXPECT_TRUE(outcome.status.IsDeadlineExceeded()) << outcome.status;
  ASSERT_TRUE(outcome.has_response);
  EXPECT_TRUE(outcome.response.meta.cancelled);
}

TEST(Cancellation, DeadlineExpiredInQueueFailsFastWithoutSolving) {
  // One worker, parked on a blocker task: the drain task sits queued
  // until this thread's Wait() pulls it, by which point the deadline
  // has deterministically lapsed.
  ThreadPool::SetGlobalConcurrency(2);
  Mutex mu;
  CondVar cv;
  bool started = false;
  bool release = false;
  ThreadPool::Global().Submit([&]() {
    MutexLock lock(&mu);
    started = true;
    cv.NotifyAll();
    while (!release) cv.Wait(mu);
  });
  {
    MutexLock lock(&mu);
    while (!started) cv.Wait(mu);
  }

  AdvisorService::Options options;
  options.default_config = SmallConfig();
  std::unique_ptr<AdvisorService> service =
      AdvisorService::Create(std::move(options)).MoveValue();

  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kSolve;
  request.objective = LooseBudgetSpec();
  request.deadline_ms = 1;
  std::shared_ptr<PendingResponse> pending =
      service->SubmitAsync(request);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ServeOutcome outcome = pending->Wait();
  {
    MutexLock lock(&mu);
    release = true;
  }
  cv.NotifyAll();
  ThreadPool::SetGlobalConcurrency(1);
  EXPECT_TRUE(outcome.status.IsDeadlineExceeded()) << outcome.status;
  EXPECT_FALSE(outcome.has_response);  // Never solved.
  EXPECT_EQ(service->stats().deadline_expired_in_queue, 1u);
}

TEST(Cancellation, AsyncSolvesCompleteThroughTheQueue) {
  AdvisorService::Options options;
  options.default_config = SmallConfig();
  std::unique_ptr<AdvisorService> service =
      AdvisorService::Create(std::move(options)).MoveValue();

  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kSolve;
  request.objective = LooseBudgetSpec();
  std::shared_ptr<PendingResponse> a = service->SubmitAsync(request);
  std::shared_ptr<PendingResponse> b = service->SubmitAsync(request);
  ServeOutcome outcome_a = a->Wait();
  ServeOutcome outcome_b = b->Wait();
  EXPECT_TRUE(outcome_a.status.ok()) << outcome_a.status;
  EXPECT_TRUE(outcome_b.status.ok()) << outcome_b.status;
  ASSERT_TRUE(outcome_a.has_response);
  ASSERT_TRUE(outcome_b.has_response);
  // Identical requests, identical answers (determinism through the
  // async path).
  EXPECT_EQ(outcome_a.response.solve.selection.evaluation.selected,
            outcome_b.response.solve.selection.evaluation.selected);
  EXPECT_GE(service->stats().served, 2u);
  EXPECT_GE(service->stats().batches, 1u);
}

// Four sessions' async queues race each other on a 3-worker pool (the
// TSan leg runs this); every reply must still equal the reply the same
// request gets from a synchronous Serve in the same per-session order,
// down to the warm-slot cache counts (only wall_ms may differ).
TEST(Cancellation, AsyncMultiSessionRepliesMatchSynchronousServe) {
  constexpr int kSessions = 4;
  constexpr int kRequestsPerSession = 8;
  const char* const kSolvers[] = {"greedy", "knapsack-dp", "local-search",
                                  "branch-and-bound"};

  auto make_service = [&]() {
    AdvisorService::Options options;
    options.default_config = SmallConfig();
    std::unique_ptr<AdvisorService> service =
        AdvisorService::Create(std::move(options)).MoveValue();
    for (int s = 0; s < kSessions; ++s) {
      EXPECT_TRUE(service->sessions()
                      .Create("s" + std::to_string(s), SmallConfig())
                      .ok());
    }
    return service;
  };
  auto make_request = [&](int s, int i) {
    AdvisorRequest request;
    request.kind = AdvisorRequestKind::kSolve;
    request.session = "s" + std::to_string(s);
    request.solver = kSolvers[(s + i) % 4];
    request.objective = LooseBudgetSpec();
    request.objective.budget_limit =
        Money::FromMicros(5'000'000 * (1 + (i % 4)));
    return request;
  };
  auto encode = [](ServeOutcome outcome) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status;
    EXPECT_TRUE(outcome.has_response);
    outcome.response.meta.wall_ms = 0;
    return WriteJson(AdvisorResponseToJson(outcome.response));
  };

  std::unique_ptr<AdvisorService> sync_service = make_service();
  std::vector<std::string> expected;
  for (int s = 0; s < kSessions; ++s) {
    for (int i = 0; i < kRequestsPerSession; ++i) {
      expected.push_back(encode(sync_service->Serve(make_request(s, i))));
    }
  }

  ThreadPool::SetGlobalConcurrency(4);
  std::unique_ptr<AdvisorService> async_service = make_service();
  // Interleaved submission: each session's queue keeps its own order.
  std::vector<std::shared_ptr<PendingResponse>> pending(
      kSessions * kRequestsPerSession);
  for (int i = 0; i < kRequestsPerSession; ++i) {
    for (int s = 0; s < kSessions; ++s) {
      pending[s * kRequestsPerSession + i] =
          async_service->SubmitAsync(make_request(s, i));
    }
  }
  for (size_t k = 0; k < pending.size(); ++k) {
    EXPECT_EQ(encode(pending[k]->Wait()), expected[k]) << "reply " << k;
  }
  ThreadPool::SetGlobalConcurrency(1);
  EXPECT_EQ(async_service->stats().served,
            static_cast<uint64_t>(kSessions * kRequestsPerSession));
}

}  // namespace
}  // namespace cloudview
