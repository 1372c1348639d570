// A cache changes speed, never a pick (DESIGN.md §9.3 rule 4): every
// registered single-objective solver returns the same selection, cost
// and times uncached, on a fresh cache and on a pre-warmed one;
// pareto-genetic, which builds no memo of its own, returns the same
// frontier with and without one; and arch-sweep's reply does not depend
// on the caller's cache, which sees none of its inner probes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/scenario.h"
#include "serving/advisor_codec.h"
#include "serving/json.h"

namespace cloudview {
namespace {

// The census grid of bench_solvers: 21 MV3 alphas, then 9 MV1 budgets
// and 9 MV2 limits at 0.1 ... 0.9 of the baseline's cost and makespan.
std::vector<ObjectiveSpec> CensusGrid(const SubsetEvaluation& baseline) {
  std::vector<ObjectiveSpec> specs;
  for (int step = 0; step <= 20; ++step) {
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV3Tradeoff;
    spec.alpha = step / 20.0;
    specs.push_back(spec);
  }
  for (int tenths = 1; tenths <= 9; ++tenths) {
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV1BudgetLimit;
    spec.budget_limit = baseline.cost.total().ScaleBy(tenths, 10);
    specs.push_back(spec);
  }
  for (int tenths = 1; tenths <= 9; ++tenths) {
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV2TimeLimit;
    spec.time_limit =
        Duration::FromMillis(baseline.makespan.millis() * tenths / 10);
    specs.push_back(spec);
  }
  return specs;
}

CloudScenario MakeScenario(const std::string& schema, size_t candidates) {
  ScenarioConfig config;
  config.schema = schema;
  config.candidates.max_candidates = candidates;
  return CloudScenario::Create(config).MoveValue();
}

// The reply with the telemetry a cache may move (wall time, cache
// counters, the warm flag) cleared.
std::string Payload(AdvisorResponse response) {
  response.meta.wall_ms = 0;
  response.meta.cache_lookups = 0;
  response.meta.cache_hits = 0;
  response.meta.cache_evictions = 0;
  response.meta.warm = false;
  return WriteJson(AdvisorResponseToJson(response));
}

void ExpectSameSolve(const SolveRun& got, const SolveRun& want) {
  const SelectionResult& a = got.selection;
  const SelectionResult& b = want.selection;
  EXPECT_EQ(a.evaluation.selected, b.evaluation.selected);
  EXPECT_EQ(a.evaluation.cost.total(), b.evaluation.cost.total());
  EXPECT_EQ(a.evaluation.processing_time, b.evaluation.processing_time);
  EXPECT_EQ(a.evaluation.makespan, b.evaluation.makespan);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.multi, b.multi);
}

struct Instance {
  const char* schema;
  size_t candidates;
};

class CacheInvariance : public ::testing::TestWithParam<Instance> {};

TEST_P(CacheInvariance, SingleObjectivePicksIgnoreTheCache) {
  const CloudScenario scenario =
      MakeScenario(GetParam().schema, GetParam().candidates);
  AdvisorRequest request{.kind = AdvisorRequestKind::kSolve};
  const SubsetEvaluation baseline =
      scenario.Dispatch(request).MoveValue().solve.baseline;
  const std::vector<ObjectiveSpec> grid = CensusGrid(baseline);
  const std::vector<std::string> solvers = {
      "knapsack-dp", "greedy", "local-search", "annealing",
      "branch-and-bound"};

  // One warm slot serves every solve below, so each warm solve runs on a
  // cache the whole census before it (its own earlier run included)
  // filled.
  AdvisorWarmSlot warmed;
  for (const std::string& solver : solvers) {
    for (const ObjectiveSpec& spec : grid) {
      request.solver = solver;
      request.objective = spec;
      ASSERT_TRUE(scenario.Dispatch(request, &warmed).ok());
    }
  }
  for (const std::string& solver : solvers) {
    for (size_t i = 0; i < grid.size(); ++i) {
      SCOPED_TRACE(solver + " spec " + std::to_string(i));
      request.solver = solver;
      request.objective = grid[i];
      AdvisorResponse uncached = scenario.Dispatch(request).MoveValue();
      EXPECT_EQ(uncached.meta.cache_lookups, 0u);
      AdvisorWarmSlot fresh_slot;
      AdvisorResponse fresh =
          scenario.Dispatch(request, &fresh_slot).MoveValue();
      EXPECT_GT(fresh.meta.cache_lookups, 0u);
      AdvisorResponse warm = scenario.Dispatch(request, &warmed).MoveValue();
      EXPECT_TRUE(warm.meta.warm);
      ExpectSameSolve(fresh.solve, uncached.solve);
      ExpectSameSolve(warm.solve, uncached.solve);
      EXPECT_EQ(Payload(fresh), Payload(uncached));
      EXPECT_EQ(Payload(warm), Payload(uncached));
    }
  }
}

TEST_P(CacheInvariance, GeneticFrontierIgnoresTheCache) {
  const CloudScenario scenario =
      MakeScenario(GetParam().schema, GetParam().candidates);
  AdvisorRequest request{.kind = AdvisorRequestKind::kFrontier,
                         .solver = "pareto-genetic"};
  const SubsetEvaluation baseline =
      scenario.Dispatch(AdvisorRequest{.kind = AdvisorRequestKind::kSolve})
          .MoveValue()
          .solve.baseline;
  const std::vector<ObjectiveSpec> grid = CensusGrid(baseline);
  AdvisorWarmSlot warmed;
  for (const ObjectiveSpec& spec : grid) {
    request.objective = spec;
    ASSERT_TRUE(scenario.Dispatch(request, &warmed).ok());
  }
  size_t points = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    request.objective = grid[i];
    AdvisorResponse uncached = scenario.Dispatch(request).MoveValue();
    EXPECT_EQ(uncached.meta.cache_lookups, 0u);
    AdvisorWarmSlot fresh_slot;
    AdvisorResponse fresh =
        scenario.Dispatch(request, &fresh_slot).MoveValue();
    EXPECT_GT(fresh.meta.cache_lookups, 0u);
    AdvisorResponse warm = scenario.Dispatch(request, &warmed).MoveValue();
    EXPECT_GT(warm.meta.cache_hits, 0u);
    points += uncached.frontier.frontier.size();
    EXPECT_EQ(Payload(fresh), Payload(uncached));
    EXPECT_EQ(Payload(warm), Payload(uncached));
  }
  // The tightest MV1/MV2 limits have no feasible point; the rest do.
  EXPECT_GT(points, grid.size());
}

TEST_P(CacheInvariance, ArchSweepIgnoresAndLeavesTheCallersCache) {
  const CloudScenario scenario =
      MakeScenario(GetParam().schema, GetParam().candidates);
  for (const char* inner : {"knapsack-dp", "local-search", "annealing"}) {
    SCOPED_TRACE(inner);
    AdvisorRequest request{.kind = AdvisorRequestKind::kSolveJoint};
    request.objective.architecture_inner_solver = inner;
    AdvisorResponse uncached = scenario.Dispatch(request).MoveValue();
    // A fresh slot's cache is handed to the sweep and never probed.
    AdvisorWarmSlot slot;
    AdvisorResponse cached = scenario.Dispatch(request, &slot).MoveValue();
    ASSERT_NE(slot.cache, nullptr);
    EXPECT_EQ(slot.cache->aggregate().lookups, 0u);
    EXPECT_EQ(cached.meta.cache_lookups, 0u);
    EXPECT_EQ(Payload(cached), Payload(uncached));
    // Primed with a solve, the slot's counters stay where the solve
    // left them.
    AdvisorWarmSlot primed;
    AdvisorRequest prime{.kind = AdvisorRequestKind::kSolve};
    const uint64_t lookups =
        scenario.Dispatch(prime, &primed).MoveValue().meta.cache_lookups;
    AdvisorResponse warm = scenario.Dispatch(request, &primed).MoveValue();
    EXPECT_EQ(warm.meta.cache_lookups, lookups);
    EXPECT_EQ(Payload(warm), Payload(uncached));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CensusInstances, CacheInvariance,
    ::testing::Values(Instance{"sales", 12}, Instance{"ssb", 20}),
    [](const ::testing::TestParamInfo<Instance>& info) {
      return std::string(info.param.schema) + "_" +
             std::to_string(info.param.candidates);
    });

}  // namespace
}  // namespace cloudview
