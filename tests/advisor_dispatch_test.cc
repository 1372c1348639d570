// The two ways into CloudScenario::Dispatch must agree: a request that
// names its workload or timeline by spec and the same request carrying
// the resolved object inline produce bit-identical payloads, and a
// pareto-sweep provider comparison row equals a frontier request on that
// row's deployment. Payloads compare serialized through the canonical
// codec as byte-equal JSON (exact unit types make this an integer
// comparison; doubles compare through their shortest round-trip form).
// Timeline requests are bounded at kMaxTimelinePeriods, and two replies
// on the served SSB session are pinned, cache telemetry included.
// Frontiers that reuse a session's earlier sweeps through its pick memo
// reply exactly what a fresh session does.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/hash.h"
#include "core/optimizer/solver.h"
#include "core/scenario.h"
#include "pricing/provider_registry.h"
#include "serving/advisor_codec.h"
#include "serving/json.h"
#include "serving/session_manager.h"

namespace cloudview {
namespace {

// The payload member of the response, as canonical JSON.
std::string PayloadJson(const AdvisorResponse& response) {
  JsonValue json = AdvisorResponseToJson(response);
  const JsonValue* payload =
      json.Find(response.kind == AdvisorRequestKind::kSolve ? "solve"
                : response.kind == AdvisorRequestKind::kFrontier
                    ? "frontier"
                : response.kind == AdvisorRequestKind::kSolveJoint
                    ? "joint"
                : response.kind == AdvisorRequestKind::kTimeline
                    ? "timeline"
                : response.kind == AdvisorRequestKind::kCompareProviders
                    ? "providers"
                    : "policies");
  EXPECT_NE(payload, nullptr);
  return payload != nullptr ? WriteJson(*payload) : std::string();
}

class DispatchEntryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.candidates.max_candidates = 8;
    config_.candidates.max_rows_fraction = 0.05;
    scenario_ = std::make_unique<CloudScenario>(
        CloudScenario::Create(config_).MoveValue());
    workload_ = std::make_unique<Workload>(
        scenario_->DefaultWorkload().MoveValue());
    spec_.scenario = Scenario::kMV1BudgetLimit;
    spec_.budget_limit = Money::FromMicros(50'000'000);  // $50: loose.
  }

  // Dispatches `request` as given (workload by WorkloadSpec "default")
  // and again with the scenario's DefaultWorkload() inline.
  void ExpectSpecMatchesInlineWorkload(AdvisorRequest request) const {
    SCOPED_TRACE(AdvisorRequestKindName(request.kind));
    AdvisorResponse by_spec = scenario_->Dispatch(request).MoveValue();
    request.inline_workload = workload_.get();
    AdvisorResponse by_inline = scenario_->Dispatch(request).MoveValue();
    EXPECT_EQ(PayloadJson(by_spec), PayloadJson(by_inline));
  }

  // Dispatches `request` with a drift-free TimelineSpec and again with
  // the same timeline generated up front and passed inline.
  void ExpectSpecMatchesInlineTimeline(AdvisorRequest request) const {
    SCOPED_TRACE(AdvisorRequestKindName(request.kind));
    request.timeline.num_periods = 2;
    AdvisorResponse by_spec = scenario_->Dispatch(request).MoveValue();

    TimelineOptions options;
    options.num_periods = 2;
    options.period_length = request.timeline.period_length;
    options.seed = request.timeline.seed;
    WorkloadTimeline timeline =
        WorkloadTimeline::Generate(scenario_->lattice(), *workload_, {},
                                   options)
            .MoveValue();
    request.inline_timeline = &timeline;
    AdvisorResponse by_inline = scenario_->Dispatch(request).MoveValue();
    EXPECT_EQ(PayloadJson(by_spec), PayloadJson(by_inline));
  }

  ScenarioConfig config_;
  std::unique_ptr<CloudScenario> scenario_;
  std::unique_ptr<Workload> workload_;
  ObjectiveSpec spec_;
};

TEST_F(DispatchEntryTest, WorkloadSpecMatchesInlineWorkload) {
  ExpectSpecMatchesInlineWorkload({.kind = AdvisorRequestKind::kSolve,
                                   .solver = "greedy",
                                   .objective = spec_});
  ExpectSpecMatchesInlineWorkload(
      {.kind = AdvisorRequestKind::kFrontier, .objective = spec_});
  ExpectSpecMatchesInlineWorkload(
      {.kind = AdvisorRequestKind::kSolveJoint, .objective = spec_});
  ExpectSpecMatchesInlineWorkload(
      {.kind = AdvisorRequestKind::kCompareProviders, .objective = spec_});
}

TEST_F(DispatchEntryTest, TimelineSpecMatchesInlineTimeline) {
  ExpectSpecMatchesInlineTimeline({.kind = AdvisorRequestKind::kTimeline,
                                   .objective = spec_,
                                   .policy = ReselectPolicy::EveryK(1)});
  AdvisorRequest compare{.kind = AdvisorRequestKind::kComparePolicies,
                         .objective = spec_};
  compare.policies = {ReselectPolicy::Static(), ReselectPolicy::EveryK(1)};
  ExpectSpecMatchesInlineTimeline(compare);
}

// A pareto-sweep provider comparison is the frontier question asked of
// each sheet: every row equals a frontier request on a scenario rebuilt
// with that provider's native billing and the instance the row rented.
TEST_F(DispatchEntryTest, ProviderFrontierRowsMatchPerSheetFrontiers) {
  std::vector<ProviderComparisonRow> rows =
      scenario_
          ->Dispatch({.kind = AdvisorRequestKind::kCompareProviders,
                      .solver = "pareto-sweep",
                      .objective = spec_,
                      .inline_workload = workload_.get()})
          .MoveValue()
          .providers;
  ASSERT_EQ(rows.size(), ProviderRegistry::Global().Names().size());

  for (const ProviderComparisonRow& row : rows) {
    SCOPED_TRACE(row.provider);
    EXPECT_FALSE(row.run.selection.frontier.empty());

    ScenarioConfig config = config_;
    config.provider = row.provider;
    config.pricing_overrides = {};
    config.instance_name = row.instance;
    CloudScenario sheet = CloudScenario::Create(config).MoveValue();
    AdvisorResponse direct =
        sheet
            .Dispatch({.kind = AdvisorRequestKind::kFrontier,
                       .solver = "pareto-sweep",
                       .objective = spec_,
                       .inline_workload = workload_.get()})
            .MoveValue();

    AdvisorResponse from_row;
    from_row.kind = AdvisorRequestKind::kFrontier;
    from_row.frontier.frontier = row.run.selection.frontier;
    from_row.frontier.best = row.run.selection;
    from_row.frontier.best.frontier.clear();
    from_row.frontier.baseline = row.run.baseline;
    EXPECT_EQ(PayloadJson(from_row), PayloadJson(direct));
  }
}

TEST_F(DispatchEntryTest, MetaSolverEchoesTheDefaultedName) {
  AdvisorResponse solve =
      scenario_
          ->Dispatch({.kind = AdvisorRequestKind::kSolve,
                      .solver = "greedy",
                      .objective = spec_,
                      .inline_workload = workload_.get()})
          .MoveValue();
  EXPECT_EQ(solve.meta.solver, "greedy");

  // An empty solver name defaults per kind.
  AdvisorResponse frontier =
      scenario_
          ->Dispatch({.kind = AdvisorRequestKind::kFrontier,
                      .objective = spec_,
                      .inline_workload = workload_.get()})
          .MoveValue();
  EXPECT_EQ(frontier.meta.solver, scenario_->config().frontier_solver);

  AdvisorResponse joint =
      scenario_
          ->Dispatch({.kind = AdvisorRequestKind::kSolveJoint,
                      .objective = spec_,
                      .inline_workload = workload_.get()})
          .MoveValue();
  EXPECT_EQ(joint.meta.solver, "arch-sweep");
}

TEST_F(DispatchEntryTest, RetiredSolverNamesAreNotFound) {
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  std::string roster;
  for (const std::string& name : names) roster += name + " ";
  EXPECT_EQ(roster,
            "annealing arch-sweep branch-and-bound greedy knapsack-dp "
            "local-search pareto-genetic pareto-sweep ");
  // "portfolio" was deleted and "exhaustive" became a test-only oracle;
  // a request naming either fails with the list of what does exist.
  for (const char* retired : {"portfolio", "exhaustive"}) {
    SCOPED_TRACE(retired);
    Result<AdvisorResponse> response =
        scenario_->Dispatch({.kind = AdvisorRequestKind::kSolve,
                             .solver = retired,
                             .objective = spec_,
                             .inline_workload = workload_.get()});
    ASSERT_FALSE(response.ok());
    EXPECT_TRUE(response.status().IsNotFound());
    const std::string& message = response.status().message();
    for (const std::string& name : names) {
      EXPECT_NE(message.find(name), std::string::npos) << message;
    }
  }
}

TEST_F(DispatchEntryTest, TimelinePeriodsAreBounded) {
  AdvisorRequest request{.kind = AdvisorRequestKind::kTimeline,
                         .objective = spec_,
                         .policy = ReselectPolicy::Static()};
  request.timeline.num_periods = kMaxTimelinePeriods;
  Result<AdvisorResponse> at_bound = scenario_->Dispatch(request);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  EXPECT_EQ(at_bound.value().timeline.ledger.size(),
            static_cast<size_t>(kMaxTimelinePeriods));

  // One past the bound, and a count far past it, fail before a single
  // period is generated; compare-policies resolves its timeline the
  // same way.
  AdvisorRequest compare{.kind = AdvisorRequestKind::kComparePolicies,
                         .objective = spec_};
  compare.policies = {ReselectPolicy::Static()};
  for (int64_t periods :
       {kMaxTimelinePeriods + 1, int64_t{4'000'000'000'000'000'000}}) {
    SCOPED_TRACE(periods);
    request.timeline.num_periods = periods;
    compare.timeline.num_periods = periods;
    for (const AdvisorRequest* over : {&request, &compare}) {
      Result<AdvisorResponse> response = scenario_->Dispatch(*over);
      ASSERT_FALSE(response.ok());
      EXPECT_TRUE(response.status().IsInvalidArgument());
    }
  }
}

// Numbers that used to overflow the int64 bills and abort the server
// come back InvalidArgument naming their field, and a request exactly at
// each bound (kMaxPeriodRuns, kMaxSpikeAmplitude, kMaxGrownFactBytes) is
// served, at kMaxTimelinePeriods and on the largest-result cuboid.
TEST(HostileNumbers, OverflowingNumbersAreRefusedAndBoundsServed) {
  CloudScenario scenario = CloudScenario::Create(ScenarioConfig{}).MoveValue();
  auto serve = [&](const std::string& line) -> Result<AdvisorResponse> {
    CV_ASSIGN_OR_RETURN(AdvisorRequest request,
                        ParseAdvisorRequestText(line));
    return scenario.Dispatch(request);
  };
  const std::string growth =
      R"({"kind":"timeline","timeline":{"num_periods":2,"drifts":[)"
      R"({"kind":"dataset-growth","growth_per_period":)";
  const std::string spike =
      R"({"kind":"timeline","timeline":{"num_periods":2,"drifts":[)"
      R"({"kind":"seasonal-spike","season_length":2,"amplitude":)";
  const std::string frequency =
      R"({"kind":"solve","workload":{"kind":"queries","queries":[)"
      R"({"name":"q","target":1,"frequency":)";
  const std::vector<std::pair<std::string, std::string>> refused = {
      {growth + "1e9}]}}", "growth_per_period"},
      {growth + "1e300}]}}", "growth_per_period"},
      {growth + "1e999}]}}", "growth_per_period"},
      {spike + "1e999}]}}", "amplitude"},
      {spike + "1e12}]}}", "amplitude"},
      {frequency + "9223372036854775807}]}}", "frequency"},
      {frequency + "1000000000000000}]}}", "frequency"},
      {frequency + "1e15}]}}", "frequency"}};
  for (const auto& [line, field] : refused) {
    Result<AdvisorResponse> response = serve(line);
    ASSERT_FALSE(response.ok()) << line;
    EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();
    EXPECT_NE(response.status().message().find(field), std::string::npos)
        << response.status();
  }

  // At each bound, and one step past it. The largest result is the base
  // cuboid's.
  const CuboidId base = scenario.lattice().base_id();
  const double max_growth =
      (static_cast<double>(kMaxGrownFactBytes) /
           static_cast<double>(scenario.lattice().fact_scan_size().bytes()) -
       1.0) /
      static_cast<double>(kMaxTimelinePeriods);
  auto request_at = [&](uint64_t runs, double amplitude, double growth_rate) {
    AdvisorRequest request{.kind = AdvisorRequestKind::kComparePolicies};
    request.workload = {.kind = "queries",
                        .queries = {QuerySpec{"q", base, runs}}};
    request.timeline.num_periods = kMaxTimelinePeriods;
    request.timeline.drifts = {
        DriftSpec{.kind = "seasonal-spike", .season_length = 1,
                  .amplitude = amplitude},
        DriftSpec{.kind = "dataset-growth",
                  .growth_per_period = growth_rate}};
    request.policies = {ReselectPolicy::Static(), ReselectPolicy::EveryK(1)};
    return WriteJson(AdvisorRequestToJson(request));
  };
  for (const std::string& line :
       {request_at(kMaxPeriodRuns, 0.0, max_growth),
        request_at(1, kMaxSpikeAmplitude, max_growth)}) {
    Result<AdvisorResponse> response = serve(line);
    ASSERT_TRUE(response.ok()) << response.status() << "\n" << line;
    for (const TemporalRunResult& run : response.value().policies) {
      EXPECT_GT(run.total.total(), Money::Zero());
      for (const TemporalPeriodRow& row : run.ledger) {
        EXPECT_GE(row.cost.storage, Money::Zero());
        EXPECT_GE(row.cost.processing, Money::Zero());
        EXPECT_GE(row.cost.transfer, Money::Zero());
      }
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::string& line :
       {request_at(kMaxPeriodRuns + 1, 0.0, 0.0),
        request_at(2, kMaxSpikeAmplitude, 0.0),
        request_at(1, std::nextafter(kMaxSpikeAmplitude, inf), 0.0),
        request_at(1, 0.0, std::nextafter(max_growth, inf))}) {
    Result<AdvisorResponse> response = serve(line);
    ASSERT_FALSE(response.ok()) << line;
    EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();
  }
}

// The session config numbers that scale the bills: each at 2^63 - 1, or
// one step past its bound, comes back InvalidArgument naming its full
// path; each at its bound builds a session that solves.
TEST(HostileNumbers, ConfigNumbersAreBoundedAndBoundsServed) {
  struct Bounded {
    std::string path;
    std::string before;  // the config text around the field's value
    std::string after;
    int64_t bound;
  };
  const std::vector<Bounded> fields = {
      {"config.nb_instances", R"({"nb_instances":)", "}", kMaxInstances},
      {"config.maintenance_cycles", R"({"maintenance_cycles":)", "}",
       kMaxMaintenanceCycles},
      {"config.storage_period_milli_months",
       R"({"prorate_storage":false,"storage_period_milli_months":)", "}",
       kMaxStoragePeriodMilliMonths},
      {"config.candidates.maintenance_delta_bytes",
       R"({"maintenance_cycles":1,"candidates":{"maintenance_delta_bytes":)",
       "}}", kMaxMaintenanceDeltaBytes}};
  auto parse = [](const Bounded& field, int64_t value) {
    return ParseScenarioConfig(
        ParseJson(field.before + std::to_string(value) + field.after)
            .MoveValue());
  };
  for (const Bounded& field : fields) {
    for (int64_t refused :
         {std::numeric_limits<int64_t>::max(), field.bound + 1, int64_t{-1}}) {
      Result<ScenarioConfig> config = parse(field, refused);
      ASSERT_FALSE(config.ok()) << field.path << " = " << refused;
      EXPECT_TRUE(config.status().IsInvalidArgument()) << config.status();
      EXPECT_EQ(config.status().message().rfind(field.path + " must be in", 0),
                0u)
          << config.status();
    }
    Result<ScenarioConfig> config = parse(field, field.bound);
    ASSERT_TRUE(config.ok()) << config.status();
    CloudScenario scenario =
        CloudScenario::Create(config.MoveValue()).MoveValue();
    Result<AdvisorResponse> response =
        scenario.Dispatch(AdvisorRequest{.kind = AdvisorRequestKind::kSolve});
    ASSERT_TRUE(response.ok()) << field.path << ": " << response.status();
    EXPECT_GT(response.value().solve.selection.evaluation.cost.total(),
              Money::Zero())
        << field.path;
  }
}

// Replies on the session perfbench serves (SSB, 100 candidates, primed
// with a default solve), recorded while arch-sweep and compare-providers
// still fanned out on the thread pool. The payloads must not move. The
// cache counters are the session cache's: the joint solve's
// per-architecture solves run uncached and leave them where the prime
// put them, and compare-providers probes no session cache at all.
TEST(ServedSsbSession, JointAndProviderRepliesArePinned) {
  const char* kConfig =
      R"({"schema":"ssb","candidates":{"max_candidates":100}})";
  ScenarioConfig config =
      ParseScenarioConfig(ParseJson(kConfig).MoveValue()).MoveValue();
  SessionManager manager;
  std::shared_ptr<AdvisorSession> session =
      manager.Create("tenant", config).MoveValue();
  auto serve = [&](std::string_view line) {
    AdvisorRequest request = ParseAdvisorRequestText(line).MoveValue();
    Result<AdvisorResponse> response = session->Serve(request);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? response.MoveValue() : AdvisorResponse();
  };
  struct Pinned {
    size_t payload_bytes;
    uint64_t payload_fnv;
    uint64_t cache_lookups;
    uint64_t cache_hits;
    uint64_t cache_evictions;
  };
  auto pinned = [](const AdvisorResponse& response) {
    std::string payload = PayloadJson(response);
    return Pinned{payload.size(), Fnv1a64(payload),
                  response.meta.cache_lookups, response.meta.cache_hits,
                  response.meta.cache_evictions};
  };
  auto expect_pinned = [](const Pinned& got, const Pinned& want) {
    EXPECT_EQ(got.payload_bytes, want.payload_bytes);
    EXPECT_EQ(got.payload_fnv, want.payload_fnv);
    EXPECT_EQ(got.cache_lookups, want.cache_lookups);
    EXPECT_EQ(got.cache_hits, want.cache_hits);
    EXPECT_EQ(got.cache_evictions, want.cache_evictions);
  };

  AdvisorResponse prime = serve(R"({"kind":"solve"})");
  AdvisorResponse joint = serve(R"({"kind":"solve-joint"})");
  AdvisorResponse providers = serve(R"({"kind":"compare-providers"})");
  EXPECT_EQ(joint.joint.best_architecture, "spot-single-az");
  // The joint solve is handed the primed session cache and never probes
  // it.
  EXPECT_EQ(joint.meta.cache_lookups, prime.meta.cache_lookups);
  expect_pinned(pinned(joint), {2440, 13382372316929059907u, 10101, 199, 0});
  // Provider rows rebuild their own deployments and solve uncached; the
  // session cache is not consulted, so the reply's counters are 0.
  EXPECT_EQ(providers.providers.size(),
            ProviderRegistry::Global().Names().size());
  expect_pinned(pinned(providers),
                {4902, 8990748280192531478u, 0, 0, 0});
}

// A session's frontiers share their roster tasks through the session
// cache's pick memo (DESIGN.md §10.3). Each reply must equal the one a
// fresh session gives the same request, apart from the wall time and
// the cache counts the memo lowers; a sweep cut short by its token
// must store no truncated task.
TEST(ServedSsbSession, MemoizedFrontiersMatchFreshSessions) {
  const char* kConfig =
      R"({"schema":"ssb","candidates":{"max_candidates":100}})";
  ScenarioConfig config =
      ParseScenarioConfig(ParseJson(kConfig).MoveValue()).MoveValue();
  SessionManager manager;
  std::shared_ptr<AdvisorSession> session =
      manager.Create("tenant", config).MoveValue();
  const AdvisorRequest prime =
      ParseAdvisorRequestText(R"({"kind":"solve"})").MoveValue();
  const uint64_t primed = session->Serve(prime).MoveValue().meta.cache_lookups;

  auto masked = [](AdvisorResponse response) {
    response.meta.wall_ms = 0;
    response.meta.cache_lookups = 0;
    response.meta.cache_hits = 0;
    response.meta.cache_evictions = 0;
    return WriteJson(AdvisorResponseToJson(response));
  };
  // The same request on a fresh, primed warm slot of the same scenario.
  auto fresh_reply = [&](const AdvisorRequest& request) {
    AdvisorWarmSlot slot;
    EXPECT_TRUE(session->scenario().Dispatch(prime, &slot).ok());
    return masked(session->scenario().Dispatch(request, &slot).MoveValue());
  };
  // Serves `request` on the session, compares, and returns the
  // session-long cache lookups after it.
  auto expect_fresh = [&](const AdvisorRequest& request) {
    AdvisorResponse reply = session->Serve(request).MoveValue();
    EXPECT_FALSE(reply.meta.cancelled);
    const uint64_t lookups = reply.meta.cache_lookups;
    EXPECT_EQ(masked(std::move(reply)), fresh_reply(request));
    return lookups;
  };

  AdvisorRequest base =
      ParseAdvisorRequestText(R"({"kind":"frontier"})").MoveValue();
  auto frontier = [&](double alpha) {
    AdvisorRequest request = base;
    request.objective.alpha = alpha;
    return request;
  };
  const uint64_t after_cold = expect_fresh(frontier(0.3));
  const uint64_t after_warm = expect_fresh(frontier(0.7));
  // The repeat runs only the anchors, so it probes far less.
  EXPECT_LT((expect_fresh(frontier(0.3)) - after_warm) * 2,
            after_cold - primed);

  // Caps taken from a frontier point in the middle bind the roster.
  const std::vector<ParetoPoint> points =
      session->Serve(frontier(0.5)).MoveValue().frontier.frontier;
  ASSERT_GE(points.size(), 3u);
  const MultiScore& middle = points[points.size() / 2].score;
  AdvisorRequest storage = frontier(0.7);
  storage.objective.max_storage = middle.storage;
  AdvisorRequest cost = frontier(0.2);
  cost.objective.max_monthly_cost = middle.monthly_cost;
  AdvisorRequest processing = frontier(0.2);
  processing.objective.time_includes_materialization = false;
  AdvisorRequest all = frontier(0.55);
  all.objective.max_storage = middle.storage;
  all.objective.max_monthly_cost = middle.monthly_cost;
  all.objective.time_includes_materialization = false;
  for (const AdvisorRequest& request :
       {storage, cost, processing, all, storage, frontier(0.45)}) {
    expect_fresh(request);
  }

  // A pre-fired token runs no task; deadlines cut the sweep at varying
  // points, anchors or roster. Each cut request carries its own cost
  // cap, so its roster tasks are not in the memo before it runs, and
  // its uncut repeat must still reply what a fresh session does.
  CancelToken fired;
  fired.Cancel();
  AdvisorRequest cut = frontier(0.6);
  cut.objective.cancel = &fired;
  EXPECT_TRUE(session->Serve(cut).MoveValue().meta.cancelled);
  cut.objective.cancel = nullptr;
  expect_fresh(cut);
  int64_t cap_scale = 2;
  for (int64_t budget_ms : {3, 10, 20, 40}) {
    CancelToken deadline;
    deadline.ArmDeadlineAfterMillis(budget_ms);
    AdvisorRequest timed = frontier(0.6);
    timed.objective.max_monthly_cost =
        middle.monthly_cost.ScaleBy(cap_scale++, 1);
    timed.objective.cancel = &deadline;
    ASSERT_TRUE(session->Serve(timed).ok());
    timed.objective.cancel = nullptr;
    expect_fresh(timed);
  }
}

}  // namespace
}  // namespace cloudview
