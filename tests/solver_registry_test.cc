// SolverRegistry: the strategy seam stays open (runtime registration
// round-trips through ViewSelector) and every registered strategy agrees
// with the exhaustive oracle on a small instance, for all three
// scenarios.

#include "core/optimizer/solver.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/optimizer/candidate_generation.h"
#include "engine/sales_generator.h"
#include "exhaustive_oracle.h"
#include "pricing/providers.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

class RegistryFixture {
 public:
  RegistryFixture() {
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

    Workload workload =
        MakePaperWorkload(*lattice_).MoveValue().Prefix(5);
    CandidateGenOptions options;
    options.max_candidates = 12;  // Exhaustive-friendly.
    options.max_rows_fraction = 0.05;
    auto candidates = GenerateCandidates(*lattice_, workload, *simulator_,
                                         cluster_, options)
                          .MoveValue();
    evaluator_ = std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(*lattice_, workload, *simulator_,
                                   cluster_, *cost_model_, deployment_,
                                   std::move(candidates))
            .MoveValue());
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
  DeploymentSpec deployment_;
  std::unique_ptr<SelectionEvaluator> evaluator_;
};

TEST(SolverRegistry, BuiltinsAreRegistered) {
  const SolverRegistry& registry = SolverRegistry::Global();
  for (const char* name :
       {"knapsack-dp", "greedy", "annealing", "local-search"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    const Solver* solver = registry.Find(name).value();
    EXPECT_EQ(solver->name(), name);
    EXPECT_FALSE(solver->description().empty()) << name;
  }
}

TEST(SolverRegistry, FindUnknownIsNotFound) {
  auto result = SolverRegistry::Global().Find("no-such-solver");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  // The error lists what does exist, for discoverability.
  EXPECT_NE(result.status().message().find("knapsack-dp"),
            std::string::npos);
}

TEST(SolverRegistry, NamesAreSortedAndUnique) {
  std::vector<std::string> names = SolverRegistry::Global().Names();
  EXPECT_GE(names.size(), 5u);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// A downstream strategy: always recommends the empty set. Registered at
// runtime to prove the seam is open without touching the library.
class EmptySetSolver : public Solver {
 public:
  std::string_view name() const override { return "test-empty-set"; }
  std::string_view description() const override {
    return "returns the baseline (test solver)";
  }
  Result<SelectionResult> Solve(const ObjectiveSpec& spec,
                                SolverContext& context) const override {
    (void)spec;
    return context.Finalize(std::vector<size_t>{});
  }
};

TEST(SolverRegistry, RuntimeRegistrationRoundTrips) {
  SolverRegistry& registry = SolverRegistry::Global();
  if (!registry.Contains("test-empty-set")) {
    ASSERT_TRUE(
        registry.Register(std::make_unique<EmptySetSolver>()).ok());
  }
  // Duplicate registration is rejected, not silently replaced.
  EXPECT_TRUE(registry.Register(std::make_unique<EmptySetSolver>())
                  .IsAlreadyExists());

  // The new strategy is now reachable through the ordinary facade.
  RegistryFixture fixture;
  ViewSelector selector(*fixture.evaluator_);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  SelectionResult result =
      selector.Solve(spec, "test-empty-set").MoveValue();
  EXPECT_TRUE(result.evaluation.selected.empty());
  EXPECT_EQ(result.solver, "test-empty-set");
  EXPECT_NEAR(result.objective_value, 1.0, 1e-9);  // Baseline blend.
}

// --- Every registered solver vs exhaustive ground truth ---------------------

class RegistryAgreementTest : public ::testing::Test {
 protected:
  RegistryFixture fixture_;
};

TEST_F(RegistryAgreementTest, AllSolversNearExhaustiveOnAllScenarios) {
  ASSERT_LE(fixture_.evaluator_->num_candidates(), 12u);
  ViewSelector selector(*fixture_.evaluator_);

  ObjectiveSpec mv1;
  mv1.scenario = Scenario::kMV1BudgetLimit;
  mv1.budget_limit = Money::FromCents(120);
  ObjectiveSpec mv2;
  mv2.scenario = Scenario::kMV2TimeLimit;
  mv2.time_limit = Duration::FromHoursRounded(0.99);
  mv2.time_includes_materialization = false;
  ObjectiveSpec mv3;
  mv3.scenario = Scenario::kMV3Tradeoff;
  mv3.alpha = 0.5;

  for (const ObjectiveSpec& spec : {mv1, mv2, mv3}) {
    SelectionResult exact =
        ExhaustiveSolve(*fixture_.evaluator_, spec).MoveValue();
    for (const std::string& name : SolverRegistry::Global().Names()) {
      if (name == "test-empty-set") continue;  // Intentionally bad.
      SCOPED_TRACE(std::string(ToString(spec.scenario)) + " / " + name);
      SelectionResult result = selector.Solve(spec, name).MoveValue();
      EXPECT_EQ(result.solver, name);
      EXPECT_EQ(result.feasible, exact.feasible);
      if (!exact.feasible) continue;
      switch (spec.scenario) {
        case Scenario::kMV1BudgetLimit:
          EXPECT_LE(result.evaluation.cost.total(), spec.budget_limit);
          EXPECT_LE(result.time.millis(), exact.time.millis() * 11 / 10);
          break;
        case Scenario::kMV2TimeLimit:
          EXPECT_LE(result.evaluation.processing_time, spec.time_limit);
          EXPECT_LE(result.evaluation.cost.total().micros(),
                    exact.evaluation.cost.total().micros() * 11 / 10);
          break;
        case Scenario::kMV3Tradeoff:
          EXPECT_LE(result.objective_value,
                    exact.objective_value * 1.05);
          break;
      }
    }
  }
}

}  // namespace
}  // namespace cloudview
