// ViewSelector: constraint satisfaction for all three scenarios, and
// knapsack/greedy optimality gaps against exhaustive ground truth
// (parameterized across scenarios and workloads).

#include "core/optimizer/selector.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/solver.h"
#include "core/scenario.h"
#include "engine/sales_generator.h"
#include "exhaustive_oracle.h"
#include "pricing/providers.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

// Shared fixture state: one lattice/simulator, evaluators built per
// workload.
class SelectorFixture {
 public:
  SelectorFixture() {
    SalesConfig config;
    lattice_ = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
    MapReduceParams params;
    params.job_startup = Duration::FromSeconds(45);
    params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
    simulator_ = std::make_unique<MapReduceSimulator>(*lattice_, params);
    pricing_ = std::make_unique<PricingModel>(
        ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
            BillingGranularity::kSecond));
    cost_model_ = std::make_unique<CloudCostModel>(*pricing_);
    cluster_ = ClusterSpec{pricing_->instances().Find("small").value(), 5};
    deployment_.instance = cluster_.instance;
    deployment_.nb_instances = cluster_.nodes;
    deployment_.storage_period = Months::FromMilli(4);
    deployment_.base_storage = StorageTimeline(lattice_->fact_scan_size());
    deployment_.maintenance_cycles = 0;
  }

  std::unique_ptr<SelectionEvaluator> MakeEvaluator(
      const Workload& workload, size_t max_candidates = 10) {
    CandidateGenOptions options;
    options.max_candidates = max_candidates;
    options.max_rows_fraction = 0.05;
    auto candidates = GenerateCandidates(*lattice_, workload, *simulator_,
                                         cluster_, options)
                          .MoveValue();
    return std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(*lattice_, workload, *simulator_,
                                   cluster_, *cost_model_, deployment_,
                                   std::move(candidates))
            .MoveValue());
  }

  Workload PaperWorkload(size_t n) {
    return MakePaperWorkload(*lattice_).MoveValue().Prefix(n);
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
  DeploymentSpec deployment_;
};

class SelectorTest : public ::testing::Test {
 protected:
  SelectorFixture fixture_;
};

TEST_F(SelectorTest, MV1RespectsBudget) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(5));
  ViewSelector selector(*evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = Money::FromCents(120);
  for (const char* solver : {"knapsack-dp", "greedy", "branch-and-bound"}) {
    SelectionResult result = selector.Solve(spec, solver).MoveValue();
    EXPECT_TRUE(result.feasible) << solver;
    EXPECT_LE(result.evaluation.cost.total(), spec.budget_limit)
        << solver;
    // Views must help: time at most the baseline's.
    EXPECT_LE(result.time, evaluator->baseline().makespan);
  }
}

TEST_F(SelectorTest, MV1InfeasibleBudgetReported) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(5));
  ViewSelector selector(*evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = Money::FromCents(1);  // Below even the baseline.
  SelectionResult result =
      selector.Solve(spec, "knapsack-dp").MoveValue();
  EXPECT_FALSE(result.feasible);
  // Best effort: the returned plan never costs more than the no-view
  // baseline (views that pay for themselves may still be selected).
  EXPECT_LE(result.evaluation.cost.total(),
            evaluator->baseline().cost.total());
}

TEST_F(SelectorTest, MV2MeetsTimeLimit) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(5));
  ViewSelector selector(*evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV2TimeLimit;
  spec.time_limit = Duration::FromHoursRounded(0.99);
  spec.time_includes_materialization = false;
  for (const char* solver : {"knapsack-dp", "greedy", "branch-and-bound"}) {
    SelectionResult result = selector.Solve(spec, solver).MoveValue();
    EXPECT_TRUE(result.feasible) << solver;
    EXPECT_LE(result.evaluation.processing_time, spec.time_limit)
        << solver;
  }
}

TEST_F(SelectorTest, MV2ImpossibleLimitIsInfeasible) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(5));
  ViewSelector selector(*evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV2TimeLimit;
  spec.time_limit = Duration::FromSeconds(1);  // Below any startup.
  SelectionResult result =
      selector.Solve(spec, "knapsack-dp").MoveValue();
  EXPECT_FALSE(result.feasible);
}

TEST_F(SelectorTest, MV3NeverWorseThanBaseline) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(10));
  ViewSelector selector(*evaluator);
  for (double alpha : {0.0, 0.3, 0.5, 0.7, 1.0}) {
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV3Tradeoff;
    spec.alpha = alpha;
    SelectionResult result =
        selector.Solve(spec, "knapsack-dp").MoveValue();
    // Empty set scores exactly 1.0; the optimizer can always keep it.
    EXPECT_LE(result.objective_value, 1.0 + 1e-9) << "alpha " << alpha;
  }
}

TEST_F(SelectorTest, MV3RejectsBadAlpha) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(3));
  ViewSelector selector(*evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 1.5;
  EXPECT_TRUE(selector.Solve(spec, "knapsack-dp")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SelectorTest, TradeoffObjectiveNormalizesBaselineToOne) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(5));
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.4;
  SolverContext context(*evaluator, spec);
  EXPECT_NEAR(context.TradeoffObjective(evaluator->baseline()), 1.0,
              1e-12);
}

TEST_F(SelectorTest, ExternalReferenceNormalization) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(3));
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  spec.mv3_reference_time = evaluator->baseline().makespan * 2;
  spec.mv3_reference_cost = evaluator->baseline().cost.total() * 2;
  // Against a twice-as-bad reference, the baseline scores 0.5.
  SolverContext context(*evaluator, spec);
  EXPECT_NEAR(context.TradeoffObjective(evaluator->baseline()), 0.5,
              1e-12);
}

// A selector holds no memo of its own: without a cache every solve runs
// uncached from the same state, so repeated solves agree bit for bit.
TEST_F(SelectorTest, CachelessSolvesRepeatExactly) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(5));
  ViewSelector selector(*evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  SelectionResult first = selector.Solve(spec, "greedy").MoveValue();
  SelectionResult second = selector.Solve(spec, "greedy").MoveValue();
  EXPECT_EQ(second.evaluation.selected, first.evaluation.selected);
  EXPECT_EQ(second.evaluation.cost.total(), first.evaluation.cost.total());
  EXPECT_EQ(second.time, first.time);
}

// The cache a selector is given is the one memo its solves probe: a
// second selector on the same cache hits what the first paid for, and
// both pick what an uncached selector picks.
TEST_F(SelectorTest, ExternalCacheTakesEveryLookup) {
  auto evaluator = fixture_.MakeEvaluator(fixture_.PaperWorkload(5));
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  EvaluationCache external;
  ViewSelector first(*evaluator, &external);
  ViewSelector second(*evaluator, &external);
  ViewSelector uncached(*evaluator);
  SelectionResult a = first.Solve(spec, "local-search").MoveValue();
  EvaluationCache::AggregateCounts after_first = external.aggregate();
  EXPECT_GT(after_first.lookups, 0u);
  SelectionResult b = second.Solve(spec, "local-search").MoveValue();
  EXPECT_GT(external.aggregate().lookups, after_first.lookups);
  EXPECT_GT(external.aggregate().hits, after_first.hits);
  SelectionResult c = uncached.Solve(spec, "local-search").MoveValue();
  EXPECT_EQ(a.evaluation.selected, c.evaluation.selected);
  EXPECT_EQ(b.evaluation.selected, c.evaluation.selected);
}

TEST_F(SelectorTest, ExhaustiveRefusesTooManyCandidates) {
  // The oracle's guard. The sales lattice never yields more than 20
  // candidates, so the instance is SSB's.
  ScenarioConfig config;
  config.schema = "ssb";
  config.candidates.max_candidates = 24;
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  Workload workload = scenario.DefaultWorkload().MoveValue();
  SelectionEvaluator evaluator =
      SelectionEvaluator::Create(
          scenario.lattice(), workload, scenario.simulator(),
          scenario.cluster(), scenario.cost_model(),
          scenario.MakeDeployment(workload, scenario.cluster()).MoveValue(),
          GenerateCandidates(scenario.lattice(), workload,
                             scenario.simulator(), scenario.cluster(),
                             config.candidates)
              .MoveValue())
          .MoveValue();
  ASSERT_GT(evaluator.num_candidates(), kExhaustiveMaxCandidates);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  EXPECT_TRUE(ExhaustiveSolve(evaluator, spec)
                  .status()
                  .IsInvalidArgument());
}

// --- Parameterized: solvers vs exhaustive ground truth ---------------------
struct GapCase {
  Scenario scenario;
  size_t workload_size;
  double budget_dollars;  // MV1
  double limit_hours;     // MV2
  double alpha;           // MV3
};

class SolverGapTest : public ::testing::TestWithParam<GapCase> {
 protected:
  SelectorFixture fixture_;
};

TEST_P(SolverGapTest, KnapsackAndGreedyNearExhaustive) {
  const GapCase& param = GetParam();
  auto evaluator =
      fixture_.MakeEvaluator(fixture_.PaperWorkload(param.workload_size),
                             /*max_candidates=*/8);
  ViewSelector selector(*evaluator);

  ObjectiveSpec spec;
  spec.scenario = param.scenario;
  spec.budget_limit = Money::FromDollarsRounded(param.budget_dollars);
  spec.time_limit = Duration::FromHoursRounded(param.limit_hours);
  spec.alpha = param.alpha;
  if (param.scenario == Scenario::kMV2TimeLimit) {
    spec.time_includes_materialization = false;
  }

  SelectionResult exact = ExhaustiveSolve(*evaluator, spec).MoveValue();
  for (const char* solver : {"knapsack-dp", "greedy"}) {
    SelectionResult heuristic = selector.Solve(spec, solver).MoveValue();
    ASSERT_EQ(heuristic.feasible, exact.feasible) << solver;
    if (!exact.feasible) continue;
    switch (param.scenario) {
      case Scenario::kMV1BudgetLimit:
        // Within 10% of the optimal time.
        EXPECT_LE(heuristic.time.millis(),
                  exact.time.millis() * 11 / 10)
            << solver;
        break;
      case Scenario::kMV2TimeLimit:
        EXPECT_LE(heuristic.evaluation.cost.total().micros(),
                  exact.evaluation.cost.total().micros() * 11 / 10)
            << solver;
        break;
      case Scenario::kMV3Tradeoff:
        EXPECT_LE(heuristic.objective_value,
                  exact.objective_value * 1.1)
            << solver;
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SolverGapTest,
    ::testing::Values(
        GapCase{Scenario::kMV1BudgetLimit, 3, 0.80, 0, 0},
        GapCase{Scenario::kMV1BudgetLimit, 5, 1.20, 0, 0},
        GapCase{Scenario::kMV1BudgetLimit, 10, 2.40, 0, 0},
        GapCase{Scenario::kMV2TimeLimit, 3, 0, 0.57, 0},
        GapCase{Scenario::kMV2TimeLimit, 5, 0, 0.99, 0},
        GapCase{Scenario::kMV2TimeLimit, 10, 0, 2.24, 0},
        GapCase{Scenario::kMV3Tradeoff, 3, 0, 0, 0.3},
        GapCase{Scenario::kMV3Tradeoff, 5, 0, 0, 0.5},
        GapCase{Scenario::kMV3Tradeoff, 10, 0, 0, 0.7}));

TEST(SelectorToString, Names) {
  EXPECT_STREQ(ToString(Scenario::kMV1BudgetLimit), "MV1 (budget limit)");
  EXPECT_STREQ(ToString(Scenario::kMV2TimeLimit), "MV2 (time limit)");
  EXPECT_STREQ(ToString(Scenario::kMV3Tradeoff), "MV3 (tradeoff)");
}

TEST(SelectorSolverDispatch, UnknownSolverIsNotFound) {
  SelectorFixture fixture;
  auto evaluator = fixture.MakeEvaluator(fixture.PaperWorkload(3));
  ViewSelector selector(*evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  EXPECT_TRUE(
      selector.Solve(spec, "no-such-solver").status().IsNotFound());
}

}  // namespace
}  // namespace cloudview
