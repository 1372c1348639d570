// The simulated-annealing solver and the amortization analysis
// (future-work extensions; DESIGN.md ablations).

#include <gtest/gtest.h>

#include "core/cost/amortization.h"
#include "core/experiments.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/selector.h"
#include "engine/sales_generator.h"
#include "exhaustive_oracle.h"
#include "pricing/providers.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

class AnnealingTest : public ::testing::Test {
 protected:
  void SetUp() override {
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
    cluster_ =
        ClusterSpec{pricing_->instances().Find("small").value(), 5};
    workload_ = MakePaperWorkload(*lattice_).MoveValue();

    DeploymentSpec deployment;
    deployment.instance = cluster_.instance;
    deployment.nb_instances = cluster_.nodes;
    deployment.storage_period = Months::FromMilli(4);
    deployment.base_storage = StorageTimeline(lattice_->fact_scan_size());

    CandidateGenOptions options;
    options.max_candidates = 8;
    options.max_rows_fraction = 0.05;
    evaluator_ = std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(
            *lattice_, workload_, *simulator_, cluster_, *cost_model_,
            deployment,
            GenerateCandidates(*lattice_, workload_, *simulator_,
                               cluster_, options)
                .MoveValue())
            .MoveValue());
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
  Workload workload_;
  std::unique_ptr<SelectionEvaluator> evaluator_;
};

TEST_F(AnnealingTest, MatchesExhaustiveOnMV3) {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  ViewSelector selector(*evaluator_);
  SelectionResult exact = ExhaustiveSolve(*evaluator_, spec).MoveValue();
  SelectionResult annealed =
      selector.Solve(spec, "annealing").MoveValue();
  EXPECT_LE(annealed.objective_value, exact.objective_value * 1.05);
}

TEST_F(AnnealingTest, RespectsBudgetConstraint) {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = Money::FromCents(240);
  ViewSelector selector(*evaluator_);
  SelectionResult result =
      selector.Solve(spec, "annealing").MoveValue();
  EXPECT_TRUE(result.feasible);
  EXPECT_LE(result.evaluation.cost.total(), spec.budget_limit);
  // And it finds real savings.
  EXPECT_LT(result.time, evaluator_->baseline().makespan);
}

TEST_F(AnnealingTest, RespectsTimeLimit) {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV2TimeLimit;
  spec.time_limit = Duration::FromHoursRounded(1.5);
  spec.time_includes_materialization = false;
  ViewSelector selector(*evaluator_);
  SelectionResult result =
      selector.Solve(spec, "annealing").MoveValue();
  EXPECT_TRUE(result.feasible);
  EXPECT_LE(result.evaluation.processing_time, spec.time_limit);
}

TEST_F(AnnealingTest, DeterministicForSameSeed) {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.4;
  ViewSelector selector(*evaluator_);
  SelectionResult a =
      selector.Solve(spec, "annealing").MoveValue();
  SelectionResult b =
      selector.Solve(spec, "annealing").MoveValue();
  EXPECT_EQ(a.evaluation.selected, b.evaluation.selected);
  EXPECT_DOUBLE_EQ(a.objective_value, b.objective_value);
}

// --- Amortization ------------------------------------------------------------

TEST(Amortization, BreakEvenCeiling) {
  AmortizationInputs inputs;
  inputs.run_cost_without_views = Money::FromCents(100);
  inputs.run_cost_with_views = Money::FromCents(40);
  inputs.materialization_cost = Money::FromCents(150);
  auto report = ComputeAmortization(inputs).MoveValue();
  EXPECT_TRUE(report.amortizes);
  EXPECT_EQ(report.per_run_saving, Money::FromCents(60));
  EXPECT_EQ(report.break_even_runs, 3);  // ceil(150/60).
}

TEST(Amortization, ExactDivision) {
  AmortizationInputs inputs;
  inputs.run_cost_without_views = Money::FromCents(100);
  inputs.run_cost_with_views = Money::FromCents(50);
  inputs.materialization_cost = Money::FromCents(100);
  EXPECT_EQ(ComputeAmortization(inputs)->break_even_runs, 2);
}

TEST(Amortization, OverheadCanKillTheDeal) {
  AmortizationInputs inputs;
  inputs.run_cost_without_views = Money::FromCents(100);
  inputs.run_cost_with_views = Money::FromCents(60);
  inputs.per_run_overhead = Money::FromCents(50);  // Eats the saving.
  inputs.materialization_cost = Money::FromCents(10);
  auto report = ComputeAmortization(inputs).MoveValue();
  EXPECT_FALSE(report.amortizes);
  EXPECT_TRUE(report.per_run_saving.is_negative());
}

TEST(Amortization, FreeMaterializationAmortizesImmediately) {
  AmortizationInputs inputs;
  inputs.run_cost_without_views = Money::FromCents(10);
  inputs.run_cost_with_views = Money::FromCents(5);
  auto report = ComputeAmortization(inputs).MoveValue();
  EXPECT_TRUE(report.amortizes);
  EXPECT_EQ(report.break_even_runs, 0);
}

TEST(Amortization, RejectsNegativeInputs) {
  AmortizationInputs inputs;
  inputs.run_cost_without_views = Money::FromCents(-1);
  EXPECT_TRUE(ComputeAmortization(inputs).status().IsInvalidArgument());
}

TEST(Amortization, RealScenarioAmortizes) {
  // Wire it to a real MV3 selection: the selected plan's amortization
  // point should be a small number of workload repetitions.
  ExperimentConfig config;
  CloudScenario scenario =
      CloudScenario::Create(config.scenario).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  SolveRun run = scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                                    .objective = spec,
                                    .inline_workload = &workload})
                     .MoveValue()
                     .solve;

  AmortizationInputs inputs;
  inputs.run_cost_without_views = run.baseline.cost.processing;
  inputs.run_cost_with_views = run.selection.evaluation.cost.processing;
  inputs.materialization_cost =
      run.selection.evaluation.cost.materialization;
  auto report = ComputeAmortization(inputs).MoveValue();
  EXPECT_TRUE(report.amortizes);
  EXPECT_GE(report.break_even_runs, 1);
  EXPECT_LE(report.break_even_runs, 10);
}

}  // namespace
}  // namespace cloudview
