// The two ways into CloudScenario::Dispatch must agree: a request that
// names its workload or timeline by spec and the same request carrying
// the resolved object inline produce bit-identical payloads, and a
// pareto-sweep provider comparison row equals a frontier request on that
// row's deployment. Payloads compare serialized through the canonical
// codec as byte-equal JSON (exact unit types make this an integer
// comparison; doubles compare through their shortest round-trip form).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/optimizer/solver.h"
#include "core/scenario.h"
#include "pricing/provider_registry.h"
#include "serving/advisor_codec.h"

namespace cloudview {
namespace {

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

  // The payload member of the response, as canonical JSON.
  static std::string PayloadJson(const AdvisorResponse& response) {
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

}  // namespace
}  // namespace cloudview
