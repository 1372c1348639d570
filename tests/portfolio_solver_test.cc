// The "portfolio" parallel multi-start solver: registration, the
// determinism pin the parallel engine is held to (CLOUDVIEW_THREADS=1
// and =8 must return bit-identical selections and CostBreakdowns), the
// at-least-as-good-as-its-starts guarantee, and thread-count
// independence of the parallel comparison sweeps.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/solver.h"
#include "core/scenario.h"
#include "engine/sales_generator.h"
#include "pricing/providers.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

/// Restores the global pool size on scope exit, so a failing assertion
/// cannot leak an 8-thread pool into the other tests.
class ScopedConcurrency {
 public:
  explicit ScopedConcurrency(size_t n)
      : original_(ThreadPool::Global().concurrency()) {
    ThreadPool::SetGlobalConcurrency(n);
  }
  ~ScopedConcurrency() { ThreadPool::SetGlobalConcurrency(original_); }

 private:
  size_t original_;
};

class PortfolioFixture {
 public:
  PortfolioFixture() {
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

    Workload workload = MakePaperWorkload(*lattice_).MoveValue();
    CandidateGenOptions options;
    options.max_candidates = 16;
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

  SelectionResult SolveWith(const char* solver,
                            const ObjectiveSpec& spec) const {
    EvaluationCache cache;
    SolverContext context(*evaluator_, spec, &cache);
    const Solver* strategy =
        SolverRegistry::Global().Find(solver).value();
    return strategy->Solve(spec, context).value();
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
  DeploymentSpec deployment_;
  std::unique_ptr<SelectionEvaluator> evaluator_;
};

ObjectiveSpec Mv1() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = Money::FromCents(240);
  return spec;
}

ObjectiveSpec Mv3() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  return spec;
}

void ExpectIdentical(const SelectionResult& a, const SelectionResult& b) {
  EXPECT_EQ(a.evaluation.selected, b.evaluation.selected);
  EXPECT_EQ(a.time.millis(), b.time.millis());
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.objective_value, b.objective_value);
  // The full CostBreakdown, term by term, to the micro-dollar.
  EXPECT_EQ(a.evaluation.cost.processing.micros(),
            b.evaluation.cost.processing.micros());
  EXPECT_EQ(a.evaluation.cost.materialization.micros(),
            b.evaluation.cost.materialization.micros());
  EXPECT_EQ(a.evaluation.cost.maintenance.micros(),
            b.evaluation.cost.maintenance.micros());
  EXPECT_EQ(a.evaluation.cost.storage.micros(),
            b.evaluation.cost.storage.micros());
  EXPECT_EQ(a.evaluation.cost.transfer.micros(),
            b.evaluation.cost.transfer.micros());
  EXPECT_EQ(a.evaluation.cost.requests.micros(),
            b.evaluation.cost.requests.micros());
  EXPECT_EQ(a.evaluation.cost.total().micros(),
            b.evaluation.cost.total().micros());
}

TEST(PortfolioSolver, IsRegistered) {
  ASSERT_TRUE(SolverRegistry::Global().Contains("portfolio"));
  const Solver* solver =
      SolverRegistry::Global().Find("portfolio").value();
  EXPECT_EQ(solver->name(), "portfolio");
  EXPECT_FALSE(solver->description().empty());
}

TEST(PortfolioSolver, DeterministicAcrossThreadCounts) {
  PortfolioFixture fixture;
  for (const ObjectiveSpec& spec : {Mv1(), Mv3()}) {
    SelectionResult serial;
    {
      ScopedConcurrency one(1);
      serial = fixture.SolveWith("portfolio", spec);
    }
    SelectionResult parallel;
    {
      ScopedConcurrency eight(8);
      parallel = fixture.SolveWith("portfolio", spec);
    }
    ExpectIdentical(serial, parallel);
  }
}

TEST(PortfolioSolver, NoWorseThanItsStarts) {
  // The portfolio contains a greedy start and annealing starts, so its
  // lexicographic score can never exceed (be worse than) theirs.
  PortfolioFixture fixture;
  ObjectiveSpec spec = Mv3();
  SelectionResult portfolio = fixture.SolveWith("portfolio", spec);
  SolverContext scoring(*fixture.evaluator_, spec);
  for (const char* rival : {"greedy", "annealing"}) {
    SelectionResult other = fixture.SolveWith(rival, spec);
    EXPECT_LE(scoring.ScoreOf(portfolio.evaluation),
              scoring.ScoreOf(other.evaluation))
        << "portfolio worse than " << rival;
  }
}

TEST(PortfolioSolver, MergesStartCountersIntoCallerContext) {
  PortfolioFixture fixture;
  ObjectiveSpec spec = Mv3();
  EvaluationCache cache;
  SolverContext context(*fixture.evaluator_, spec, &cache);
  const Solver* portfolio =
      SolverRegistry::Global().Find("portfolio").value();
  ASSERT_TRUE(portfolio->Solve(spec, context).ok());
  // All the per-start probes are visible to the caller (plus the final
  // exact Finalize), so bench subsets/sec accounting stays honest.
  EXPECT_GT(context.counters().incremental_probes, 0u);
  EXPECT_GE(context.counters().full_evaluations, 1u);
}

TEST(ComparisonSweeps, ProviderRowsIndependentOfThreadCount) {
  ScenarioConfig config;
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  Workload workload = scenario.PaperWorkload().value();
  ObjectiveSpec spec = Mv3();
  const AdvisorRequest request{
      .kind = AdvisorRequestKind::kCompareProviders,
      .solver = "greedy",
      .objective = spec,
      .inline_workload = &workload};

  std::vector<ProviderComparisonRow> serial;
  {
    ScopedConcurrency one(1);
    serial = scenario.Dispatch(request).value().providers;
  }
  std::vector<ProviderComparisonRow> parallel;
  {
    ScopedConcurrency eight(8);
    parallel = scenario.Dispatch(request).value().providers;
  }
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_GE(serial.size(), 4u);  // The built-in sheets, at least.
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].provider, parallel[i].provider);
    EXPECT_EQ(serial[i].instance, parallel[i].instance);
    ExpectIdentical(serial[i].run.selection, parallel[i].run.selection);
  }
  // Sorted provider order, not completion order.
  for (size_t i = 1; i < parallel.size(); ++i) {
    EXPECT_LT(parallel[i - 1].provider, parallel[i].provider);
  }
}

}  // namespace
}  // namespace cloudview
