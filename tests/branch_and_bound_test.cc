// Branch-and-bound (DESIGN.md §13): optima identical to the exhaustive
// oracle on every tractable fixture, bit-identical results across
// thread counts (including under budget truncation), honest gap
// certificates, and exact solves past the oracle's 20-candidate wall.

#include "core/optimizer/branch_and_bound.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/solver.h"
#include "core/scenario.h"
#include "engine/sales_generator.h"
#include "exhaustive_oracle.h"
#include "pricing/providers.h"
#include "workload/ssb.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

// One self-owning instance (sales or SSB); both stay at or under the
// exhaustive oracle's 20-candidate wall so it remains the ground truth.
struct Fixture {
  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
  DeploymentSpec deployment;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

Fixture MakeSalesFixture(size_t workload_size, size_t max_candidates) {
  Fixture f;
  SalesConfig config;
  f.lattice = std::make_unique<CubeLattice>(
      CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
  MapReduceParams params;
  params.job_startup = Duration::FromSeconds(45);
  params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
  f.simulator = std::make_unique<MapReduceSimulator>(*f.lattice, params);
  f.pricing = std::make_unique<PricingModel>(
      ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
          BillingGranularity::kSecond));
  f.cost_model = std::make_unique<CloudCostModel>(*f.pricing);
  f.cluster = ClusterSpec{f.pricing->instances().Find("small").value(), 5};
  f.deployment.instance = f.cluster.instance;
  f.deployment.nb_instances = f.cluster.nodes;
  f.deployment.storage_period = Months::FromMilli(4);
  f.deployment.base_storage = StorageTimeline(f.lattice->fact_scan_size());
  f.deployment.maintenance_cycles = 0;

  Workload workload =
      MakePaperWorkload(*f.lattice).MoveValue().Prefix(workload_size);
  CandidateGenOptions options;
  options.max_candidates = max_candidates;
  options.max_rows_fraction = 0.05;
  auto candidates = GenerateCandidates(*f.lattice, workload, *f.simulator,
                                       f.cluster, options)
                        .MoveValue();
  f.evaluator = std::make_unique<SelectionEvaluator>(
      SelectionEvaluator::Create(*f.lattice, workload, *f.simulator,
                                 f.cluster, *f.cost_model, f.deployment,
                                 std::move(candidates))
          .MoveValue());
  return f;
}

Fixture MakeSsbFixture(size_t max_candidates) {
  Fixture f;
  SsbConfig config;
  f.lattice = std::make_unique<CubeLattice>(
      CubeLattice::Build(MakeSsbSchema(config).value()).MoveValue());
  f.simulator =
      std::make_unique<MapReduceSimulator>(*f.lattice, MapReduceParams{});
  f.pricing = std::make_unique<PricingModel>(
      ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
          BillingGranularity::kSecond));
  f.cost_model = std::make_unique<CloudCostModel>(*f.pricing);
  f.cluster = ClusterSpec{f.pricing->instances().Find("small").value(), 5};
  Workload ssb = MakeSsbWorkload(*f.lattice).MoveValue();
  std::vector<QuerySpec> mix;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (QuerySpec query : ssb.queries()) {
      query.frequency = static_cast<uint64_t>(repeat + 1);
      mix.push_back(std::move(query));
    }
  }
  f.deployment.instance = f.cluster.instance;
  f.deployment.nb_instances = f.cluster.nodes;
  f.deployment.storage_period = Months::FromMilli(3);
  f.deployment.base_storage = StorageTimeline(f.lattice->fact_scan_size());
  f.deployment.maintenance_cycles = 0;

  Workload workload(std::move(mix));
  CandidateGenOptions options;
  options.max_candidates = max_candidates;
  options.max_rows_fraction = 0.10;
  auto candidates = GenerateCandidates(*f.lattice, workload, *f.simulator,
                                       f.cluster, options)
                        .MoveValue();
  f.evaluator = std::make_unique<SelectionEvaluator>(
      SelectionEvaluator::Create(*f.lattice, workload, *f.simulator,
                                 f.cluster, *f.cost_model, f.deployment,
                                 std::move(candidates))
          .MoveValue());
  return f;
}

// The instance an advisor session serves for perfbench's set-up line:
// the SSB schema with up to 100 candidate views, defaults elsewhere.
struct ServedInstance {
  CloudScenario scenario;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

ServedInstance MakeServedInstance() {
  ScenarioConfig config;
  config.schema = "ssb";
  config.candidates.max_candidates = 100;
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  Workload workload = scenario.DefaultWorkload().MoveValue();
  DeploymentSpec deployment =
      scenario.MakeDeployment(workload, scenario.cluster()).MoveValue();
  auto candidates =
      GenerateCandidates(scenario.lattice(), workload, scenario.simulator(),
                         scenario.cluster(), config.candidates)
          .MoveValue();
  auto evaluator = std::make_unique<SelectionEvaluator>(
      SelectionEvaluator::Create(scenario.lattice(), workload,
                                 scenario.simulator(), scenario.cluster(),
                                 scenario.cost_model(), deployment,
                                 std::move(candidates))
          .MoveValue());
  return ServedInstance{std::move(scenario), std::move(evaluator)};
}

ObjectiveSpec ServedBudgetSpec(const SelectionEvaluator& evaluator) {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = evaluator.baseline().cost.total().ScaleBy(3, 5);
  return spec;
}

std::vector<ObjectiveSpec> AllScenarioSpecs() {
  ObjectiveSpec mv1;
  mv1.scenario = Scenario::kMV1BudgetLimit;
  mv1.budget_limit = Money::FromCents(240);
  ObjectiveSpec mv2;
  mv2.scenario = Scenario::kMV2TimeLimit;
  mv2.time_limit = Duration::FromHoursRounded(2.24);
  mv2.time_includes_materialization = false;
  ObjectiveSpec mv3;
  mv3.scenario = Scenario::kMV3Tradeoff;
  mv3.alpha = 0.5;
  // A hard-constrained variant: branch-and-bound must honor the
  // violation term of the lexicographic score like every solver.
  ObjectiveSpec capped = mv3;
  capped.max_makespan = Duration::FromHoursRounded(4.0);
  capped.max_storage = DataSize::FromGB(2);
  return {mv1, mv2, mv3, capped};
}

/// Bit-equality of two finished selections: the subset, the full
/// monetary breakdown, and the reported metrics.
void ExpectIdentical(const SelectionResult& a, const SelectionResult& b) {
  EXPECT_EQ(a.evaluation.selected, b.evaluation.selected);
  EXPECT_EQ(a.evaluation.cost.total().micros(),
            b.evaluation.cost.total().micros());
  EXPECT_EQ(a.evaluation.processing_time.millis(),
            b.evaluation.processing_time.millis());
  EXPECT_EQ(a.evaluation.makespan.millis(), b.evaluation.makespan.millis());
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.time.millis(), b.time.millis());
}

class BranchAndBoundTest : public ::testing::Test {
 protected:
  void RunAgainstExhaustive(const Fixture& fixture) {
    ASSERT_LE(fixture.evaluator->num_candidates(), 20u);
    ViewSelector selector(*fixture.evaluator);
    for (const ObjectiveSpec& spec : AllScenarioSpecs()) {
      SCOPED_TRACE(ToString(spec.scenario));
      SelectionResult exact =
          ExhaustiveSolve(*fixture.evaluator, spec).MoveValue();
      SelectionResult bnb =
          selector.Solve(spec, "branch-and-bound").MoveValue();
      ExpectIdentical(bnb, exact);
    }
  }
};

TEST_F(BranchAndBoundTest, MatchesExhaustiveBitForBitOnSales) {
  RunAgainstExhaustive(MakeSalesFixture(/*workload_size=*/5,
                                        /*max_candidates=*/12));
  RunAgainstExhaustive(MakeSalesFixture(/*workload_size=*/10,
                                        /*max_candidates=*/12));
}

TEST_F(BranchAndBoundTest, MatchesExhaustiveBitForBitOnSsb) {
  RunAgainstExhaustive(MakeSsbFixture(/*max_candidates=*/16));
}

TEST_F(BranchAndBoundTest, ProvesOptimalityAndReportsStats) {
  Fixture fixture = MakeSalesFixture(5, 12);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  EvaluationCache cache;
  SolverContext context(*fixture.evaluator, spec, &cache);
  SearchStats stats;
  BranchAndBoundOptions options;
  options.stats = &stats;
  SelectionResult result =
      SolveBranchAndBound(context, options).MoveValue();
  EXPECT_TRUE(stats.proven_optimal);
  EXPECT_EQ(stats.gap_fraction, 0.0);
  EXPECT_GT(stats.nodes_expanded, 0u);
  EXPECT_GT(stats.bound_evaluations, 0u);
  // The search's probes land in the context counters like every solver
  // (bound evaluations count as incremental probes).
  EXPECT_GT(context.counters().subsets_scored(), 0u);
  EXPECT_FALSE(result.evaluation.selected.empty());
}

TEST_F(BranchAndBoundTest, BitIdenticalAcrossThreadCounts) {
  Fixture fixture = MakeSsbFixture(/*max_candidates=*/16);
  size_t original = ThreadPool::Global().concurrency();
  for (const ObjectiveSpec& spec : AllScenarioSpecs()) {
    SCOPED_TRACE(ToString(spec.scenario));
    std::vector<SelectionResult> results;
    std::vector<SearchStats> stats;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      ThreadPool::SetGlobalConcurrency(threads);
      EvaluationCache cache;
      SolverContext context(*fixture.evaluator, spec, &cache);
      SearchStats run_stats;
      BranchAndBoundOptions options;
      options.stats = &run_stats;
      results.push_back(SolveBranchAndBound(context, options).MoveValue());
      stats.push_back(run_stats);
    }
    ExpectIdentical(results[0], results[1]);
    // Determinism is structural, not just final-answer: the same tree
    // is explored whatever the thread count.
    EXPECT_EQ(stats[0].nodes_expanded, stats[1].nodes_expanded);
    EXPECT_EQ(stats[0].pruned_by_bound, stats[1].pruned_by_bound);
    EXPECT_EQ(stats[0].proven_optimal, stats[1].proven_optimal);
  }
  ThreadPool::SetGlobalConcurrency(original);
}

TEST_F(BranchAndBoundTest, BudgetTruncationIsDeterministicWithHonestGap) {
  Fixture fixture = MakeSsbFixture(/*max_candidates=*/16);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  size_t original = ThreadPool::Global().concurrency();
  std::vector<SelectionResult> results;
  std::vector<SearchStats> stats;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool::SetGlobalConcurrency(threads);
    EvaluationCache cache;
    SolverContext context(*fixture.evaluator, spec, &cache);
    SearchStats run_stats;
    BranchAndBoundOptions options;
    options.stats = &run_stats;
    options.max_nodes = 3;  // Force a cutoff.
    results.push_back(SolveBranchAndBound(context, options).MoveValue());
    stats.push_back(run_stats);
  }
  ThreadPool::SetGlobalConcurrency(original);
  // Truncated searches stay bit-identical across thread counts: the
  // walk is sequential, so the explored set is scheduling-free.
  ExpectIdentical(results[0], results[1]);
  EXPECT_EQ(stats[0].nodes_expanded, stats[1].nodes_expanded);
  EXPECT_EQ(stats[0].proven_optimal, stats[1].proven_optimal);
  EXPECT_EQ(stats[0].gap_fraction, stats[1].gap_fraction);
  EXPECT_GE(stats[0].gap_fraction, 0.0);
  EXPECT_LE(stats[0].gap_fraction, 1.0);
  // The truncated incumbent is still a real (greedy-or-better) answer.
  EXPECT_TRUE(results[0].feasible);
}

TEST_F(BranchAndBoundTest, ServedInstanceRegressionPin) {
  // An MV1 budget of 0.6x the baseline on the served 100-candidate
  // instance: the walk proves the optimum in a pinned number of nodes.
  // Node counts are machine-independent, so any change to the bound,
  // the branch order or the pruning rule shows up here exactly.
  ServedInstance served = MakeServedInstance();
  ASSERT_EQ(served.evaluator->num_candidates(), 100u);
  ObjectiveSpec spec = ServedBudgetSpec(*served.evaluator);
  EvaluationCache cache;
  SolverContext context(*served.evaluator, spec, &cache);
  SearchStats stats;
  BranchAndBoundOptions options;
  options.stats = &stats;
  SelectionResult result =
      SolveBranchAndBound(context, options).MoveValue();
  EXPECT_TRUE(stats.proven_optimal);
  EXPECT_EQ(stats.gap_fraction, 0.0);
  EXPECT_EQ(result.evaluation.selected, (std::vector<size_t>{5, 16, 49}));
  EXPECT_EQ(result.evaluation.cost.total().micros(), 513'914);
  EXPECT_EQ(result.time.millis(), 2'504'820);
  EXPECT_EQ(stats.nodes_expanded, 2'155u);
}

TEST_F(BranchAndBoundTest, WalkLeavesTheCallersCacheAlone) {
  // The caller's cache holds what the warm start's hill climb probed,
  // and nothing from the walk: every committed subset in the tree is
  // scored once, so memoizing those probes would only push the
  // session toward evictions of other solvers' warm entries.
  ServedInstance served = MakeServedInstance();
  ObjectiveSpec spec = ServedBudgetSpec(*served.evaluator);

  EvaluationCache warm_cache;
  SolverContext warm_context(*served.evaluator, spec, &warm_cache);
  SubsetState warm_state(*served.evaluator);
  warm_context.HillClimb(warm_state, /*with_swaps=*/true);
  warm_context.ScoreState(warm_state);

  EvaluationCache cache(warm_cache.size());
  SolverContext context(*served.evaluator, spec, &cache);
  SearchStats stats;
  BranchAndBoundOptions options;
  options.stats = &stats;
  ASSERT_TRUE(SolveBranchAndBound(context, options).ok());
  EXPECT_GT(stats.nodes_expanded, 1'000u);
  EXPECT_EQ(cache.size(), warm_cache.size());
  EXPECT_EQ(cache.aggregate().evictions, 0u);
  EXPECT_TRUE(context.use_cache());
}

TEST_F(BranchAndBoundTest, RegisteredAndDiscoverable) {
  const SolverRegistry& registry = SolverRegistry::Global();
  ASSERT_TRUE(registry.Contains("branch-and-bound"));
  const Solver* solver = registry.Find("branch-and-bound").value();
  EXPECT_EQ(solver->name(), "branch-and-bound");
  EXPECT_FALSE(solver->multi_objective());
}

TEST_F(BranchAndBoundTest, SolvesPastTheOracleWall) {
  // 21+ candidates: past what the exhaustive oracle enumerates,
  // branch-and-bound takes the instance in stride.
  Fixture fixture = MakeSsbFixture(/*max_candidates=*/24);
  ASSERT_GT(fixture.evaluator->num_candidates(), 20u);

  ViewSelector selector(*fixture.evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  SelectionResult solved =
      selector.Solve(spec, "branch-and-bound").MoveValue();
  EXPECT_EQ(solved.solver, "branch-and-bound");
  EXPECT_TRUE(solved.feasible);
}

}  // namespace
}  // namespace cloudview
