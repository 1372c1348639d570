// Multi-objective strategies ("pareto-sweep", "pareto-genetic") and the
// hard-constraint contract: frontiers are feasible, mutually
// non-dominated and cover the single-objective optima; every registered
// solver honors max_monthly_cost / max_storage / max_makespan; frontier
// and pareto-sweep provider-comparison requests round-trip through
// CloudScenario::Dispatch. The sweep's pick memo keys every
// solve-relevant spec field and keeps frontiers exact across its cap.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "core/experiments.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"
#include "core/scenario.h"
#include "engine/sales_generator.h"
#include "exhaustive_oracle.h"
#include "pricing/provider_registry.h"
#include "pricing/providers.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

bool IsMultiObjective(const std::string& name) {
  Result<const Solver*> solver = SolverRegistry::Global().Find(name);
  return solver.ok() && solver.value()->multi_objective();
}

class ParetoSolverTest : public ::testing::Test {
 protected:
  ParetoSolverTest() {
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
        MakePaperWorkload(*lattice_).MoveValue().Prefix(7);
    CandidateGenOptions options;
    options.max_candidates = 10;  // Exhaustive-oracle friendly.
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

  /// The MultiScore a selection should carry, recomputed from scratch.
  MultiScore ExactMulti(const ObjectiveSpec& spec,
                        const std::vector<size_t>& selected) const {
    SolverContext context(*evaluator_, spec);
    SubsetEvaluation eval = evaluator_->Evaluate(selected).value();
    return context.MultiScoreOf(eval);
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
  DeploymentSpec deployment_;
  std::unique_ptr<SelectionEvaluator> evaluator_;
};

TEST_F(ParetoSolverTest, MultiObjectiveSolversAreRegistered) {
  for (const char* name : {"pareto-sweep", "pareto-genetic"}) {
    ASSERT_TRUE(SolverRegistry::Global().Contains(name)) << name;
    const Solver* solver = SolverRegistry::Global().Find(name).value();
    EXPECT_EQ(solver->name(), name);
    EXPECT_FALSE(solver->description().empty());
    EXPECT_TRUE(solver->multi_objective());
  }
  // Scalar strategies answer false (the default).
  EXPECT_FALSE(
      SolverRegistry::Global().Find("greedy").value()->multi_objective());
}

TEST_F(ParetoSolverTest, SelectionResultCarriesMultiScore) {
  ViewSelector selector(*evaluator_);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  SelectionResult result = selector.Solve(spec, "greedy").MoveValue();
  EXPECT_EQ(result.multi,
            ExactMulti(spec, result.evaluation.selected));
  EXPECT_TRUE(result.frontier.empty());  // Single-objective solver.
  // Monthly normalization: a 4-milli-month period scales the bill 250x.
  EXPECT_EQ(result.multi.monthly_cost,
            result.evaluation.cost.total().ScaleBy(1000, 4));
  EXPECT_EQ(result.multi.storage,
            result.evaluation.view_input.TotalSize());
}

TEST_F(ParetoSolverTest, FrontiersAreFeasibleNonDominatedAndCovering) {
  ViewSelector selector(*evaluator_);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  spec.max_monthly_cost = Money::FromDollars(500);

  for (const char* name : {"pareto-sweep", "pareto-genetic"}) {
    SCOPED_TRACE(name);
    SelectionResult result = selector.Solve(spec, name).MoveValue();
    ASSERT_FALSE(result.frontier.empty());
    EXPECT_TRUE(result.feasible);

    SolverContext context(*evaluator_, spec);
    for (const ParetoPoint& point : result.frontier) {
      // Scores are genuine: re-evaluating the subset reproduces them.
      SubsetEvaluation eval =
          evaluator_->Evaluate(point.selected).value();
      EXPECT_EQ(context.MultiScoreOf(eval), point.score);
      // Feasible under the scenario and the hard budget.
      EXPECT_TRUE(context.Feasible(context.ProbeOf(eval)));
      EXPECT_LE(point.score.monthly_cost, spec.max_monthly_cost);
      // Mutually non-dominated.
      for (const ParetoPoint& other : result.frontier) {
        EXPECT_FALSE(other.score.Dominates(point.score));
      }
    }

    // The frontier accounts for every single-objective optimum (the
    // sweep by construction, the genetic because its archive must
    // dominate-or-match them for this small instance).
    if (std::string(name) == "pareto-genetic") continue;
    ParetoFront cover(spec.frontier_epsilon);
    for (const ParetoPoint& point : result.frontier) cover.Insert(point);
    for (const std::string& single : SolverRegistry::Global().Names()) {
      if (IsMultiObjective(single) || single == "test-empty-set") {
        continue;
      }
      SelectionResult anchor = selector.Solve(spec, single).MoveValue();
      if (!anchor.feasible) continue;
      EXPECT_TRUE(cover.Covers(anchor.multi))
          << "frontier misses " << single;
    }
  }
}

TEST_F(ParetoSolverTest, SweepBestMatchesExhaustiveGroundTruth) {
  ViewSelector selector(*evaluator_);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = Money::FromCents(120);
  SelectionResult exact = ExhaustiveSolve(*evaluator_, spec).MoveValue();
  SelectionResult sweep =
      selector.Solve(spec, "pareto-sweep").MoveValue();
  // The sweep anchors on the exact branch-and-bound, so its best can
  // never score worse than the oracle's.
  SolverContext context(*evaluator_, spec);
  EXPECT_LE(context.ScoreOf(sweep.evaluation),
            context.ScoreOf(exact.evaluation));
  EXPECT_EQ(sweep.feasible, exact.feasible);
}

TEST_F(ParetoSolverTest, AllSolversHonorHardConstraints) {
  ViewSelector selector(*evaluator_);

  // Unconstrained reference: what the solvers would pick freely.
  ObjectiveSpec free_spec;
  free_spec.scenario = Scenario::kMV3Tradeoff;
  SelectionResult free_pick =
      ExhaustiveSolve(*evaluator_, free_spec).MoveValue();
  const SubsetEvaluation& baseline = evaluator_->baseline();

  // Constraints the empty set always satisfies (so they are
  // satisfiable), with max_storage binding against the free pick.
  ObjectiveSpec spec = free_spec;
  spec.max_storage = DataSize::FromBytes(
      free_pick.multi.storage.bytes() > 1
          ? free_pick.multi.storage.bytes() / 2
          : 1);
  spec.max_makespan = baseline.makespan;
  spec.max_monthly_cost =
      baseline.cost.total().ScaleBy(1000, 4) + Money::FromDollars(1);

  for (const std::string& name : SolverRegistry::Global().Names()) {
    if (name == "test-empty-set") continue;
    SCOPED_TRACE(name);
    SelectionResult result = selector.Solve(spec, name).MoveValue();
    EXPECT_TRUE(result.feasible);
    EXPECT_LE(result.evaluation.view_input.TotalSize(),
              spec.max_storage);
    EXPECT_LE(result.evaluation.makespan, spec.max_makespan);
    EXPECT_LE(result.multi.monthly_cost, spec.max_monthly_cost);
  }
}

TEST_F(ParetoSolverTest, InfeasibleHardConstraintIsReported) {
  ViewSelector selector(*evaluator_);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  // No subset can beat a 1 ms makespan.
  spec.max_makespan = Duration::FromMillis(1);
  for (const char* name : {"greedy", "pareto-sweep", "pareto-genetic"}) {
    SCOPED_TRACE(name);
    SelectionResult result = selector.Solve(spec, name).MoveValue();
    EXPECT_FALSE(result.feasible);
    if (IsMultiObjective(name)) {
      EXPECT_TRUE(result.frontier.empty());  // Nothing feasible to keep.
    }
  }
}

TEST_F(ParetoSolverTest, UncachedSweepMatchesCached) {
  const Solver& sweep =
      *SolverRegistry::Global().Find("pareto-sweep").value();
  ObjectiveSpec mv3;
  mv3.scenario = Scenario::kMV3Tradeoff;
  mv3.alpha = 0.5;
  mv3.max_monthly_cost = Money::FromDollars(500);
  ObjectiveSpec mv1;
  mv1.scenario = Scenario::kMV1BudgetLimit;
  mv1.budget_limit = Money::FromCents(120);
  for (const ObjectiveSpec& spec : {mv3, mv1}) {
    SCOPED_TRACE(ToString(spec.scenario));
    EvaluationCache cache;
    SolverContext cached(*evaluator_, spec, &cache);
    SelectionResult with_cache = sweep.Solve(spec, cached).MoveValue();
    SolverContext uncached(*evaluator_, spec);
    ASSERT_EQ(uncached.cache(), nullptr);
    SelectionResult without = sweep.Solve(spec, uncached).MoveValue();

    EXPECT_EQ(without.evaluation.selected, with_cache.evaluation.selected);
    EXPECT_EQ(without.multi, with_cache.multi);
    ASSERT_EQ(without.frontier.size(), with_cache.frontier.size());
    for (size_t i = 0; i < without.frontier.size(); ++i) {
      EXPECT_EQ(without.frontier[i].score, with_cache.frontier[i].score);
      EXPECT_EQ(without.frontier[i].selected,
                with_cache.frontier[i].selected);
      EXPECT_EQ(without.frontier[i].origin, with_cache.frontier[i].origin);
    }
  }
}

TEST_F(ParetoSolverTest, CancelledSweepStopsLaunchingTasks) {
  const Solver& sweep =
      *SolverRegistry::Global().Find("pareto-sweep").value();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  EvaluationCache full_cache;
  SolverContext full(*evaluator_, spec, &full_cache);
  SelectionResult complete = sweep.Solve(spec, full).MoveValue();
  EXPECT_FALSE(complete.cancelled);

  CancelToken token;
  token.Cancel();
  ObjectiveSpec cancelled_spec = spec;
  cancelled_spec.cancel = &token;
  EvaluationCache cache;
  SolverContext context(*evaluator_, cancelled_spec, &cache);
  Result<SelectionResult> result = sweep.Solve(cancelled_spec, context);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().cancelled);
  // Only the baseline ran; it is still offered to the front.
  ASSERT_EQ(result.value().frontier.size(), 1u);
  EXPECT_EQ(result.value().frontier[0].origin, "baseline");
  EXPECT_TRUE(result.value().frontier[0].selected.empty());
  EXPECT_LT(context.counters().subsets_scored() * 100,
            full.counters().subsets_scored());
}

// --- The served instance ----------------------------------------------------

// A session config's instance; the defaults are perfbench's: SSB with
// at most 100 candidate views.
struct ServedInstance {
  CloudScenario scenario;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

ServedInstance MakeServedInstance(const std::string& schema = "ssb",
                                  size_t max_candidates = 100) {
  ScenarioConfig config;
  config.schema = schema;
  config.candidates.max_candidates = max_candidates;
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

/// "origin{i,j,...} " per frontier point, then "best{...}".
std::string Describe(const SelectionResult& result) {
  auto subset = [](const std::vector<size_t>& selected) {
    std::string out = "{";
    for (size_t i = 0; i < selected.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(selected[i]);
    }
    return out + "}";
  };
  std::string out;
  for (const ParetoPoint& point : result.frontier) {
    out += point.origin + subset(point.selected) + " ";
  }
  return out + "best" + subset(result.evaluation.selected);
}

TEST(ParetoSweepServedInstance, RegressionPin) {
  ServedInstance served = MakeServedInstance();
  const SelectionEvaluator& evaluator = *served.evaluator;
  ASSERT_EQ(evaluator.num_candidates(), 100u);
  ServedInstance sales = MakeServedInstance("sales", 12);
  ASSERT_EQ(sales.evaluator->num_candidates(), 12u);
  ServedInstance ssb20 = MakeServedInstance("ssb", 20);
  ASSERT_EQ(ssb20.evaluator->num_candidates(), 20u);
  const Solver& sweep =
      *SolverRegistry::Global().Find("pareto-sweep").value();

  auto mv3 = [](double alpha) {
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV3Tradeoff;
    spec.alpha = alpha;
    return spec;
  };
  auto mv1 = [](const SelectionEvaluator& on) {
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV1BudgetLimit;
    spec.budget_limit = on.baseline().cost.total().ScaleBy(3, 5);
    return spec;
  };
  auto mv2 = [](const SelectionEvaluator& on) {
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV2TimeLimit;
    spec.time_limit =
        Duration::FromMillis(on.baseline().makespan.millis() * 3 / 5);
    return spec;
  };

  // The frontiers the sweep returned while it still ran a portfolio
  // anchor on a per-task clone and cache: dropping that anchor and
  // sharing the caller's cache must move no point, origin or best pick.
  const std::string with_baseline =
      "branch-and-bound{5,16,49} knapsack-dp a=0.0 s<=5%{5,38,39} "
      "baseline{} best{5,16,49}";
  const std::string without_baseline =
      "branch-and-bound{5,16,49} knapsack-dp a=0.0 s<=5%{5,38,39} "
      "best{5,16,49}";
  // The small instances' frontiers while an exhaustive anchor still ran
  // beside branch-and-bound (both fit its 20-candidate wall): dropping
  // that anchor must move nothing either.
  const std::string sales_with_baseline =
      "annealing{0} annealing a=0.0 s<=15%{1,2} annealing a=0.0 s<=5%{1} "
      "baseline{} best{0}";
  const std::string sales_without_baseline =
      "annealing{0} annealing a=0.0 s<=15%{1,2} annealing a=0.0 s<=5%{1} "
      "best{0}";
  const std::string ssb20_low_alpha =
      "branch-and-bound{0,5} knapsack-dp a=0.0 s<=5%{5,14,18} baseline{} "
      "best{0,5}";
  const std::string ssb20_with_baseline =
      "annealing{0,5} knapsack-dp a=0.0 s<=5%{5,14,18} baseline{} "
      "best{0,5}";
  const std::string ssb20_without_baseline =
      "annealing{0,5} knapsack-dp a=0.0 s<=5%{5,14,18} best{0,5}";
  const SelectionEvaluator& on_sales = *sales.evaluator;
  const SelectionEvaluator& on_ssb20 = *ssb20.evaluator;
  struct Pin {
    const SelectionEvaluator* evaluator;
    ObjectiveSpec spec;
    std::string expected;
  };
  const std::vector<Pin> pins = {
      {&evaluator, mv3(0.05), with_baseline},
      {&evaluator, mv3(0.5), with_baseline},
      {&evaluator, mv3(0.95), with_baseline},
      // The baseline busts the budget ...
      {&evaluator, mv1(evaluator), without_baseline},
      // ... and the time limit.
      {&evaluator, mv2(evaluator), without_baseline},
      {&on_sales, mv3(0.05), sales_with_baseline},
      {&on_sales, mv3(0.5), sales_with_baseline},
      {&on_sales, mv3(0.95), sales_with_baseline},
      {&on_sales, mv1(on_sales), sales_without_baseline},
      {&on_sales, mv2(on_sales), sales_without_baseline},
      {&on_ssb20, mv3(0.05), ssb20_low_alpha},
      {&on_ssb20, mv3(0.5), ssb20_with_baseline},
      {&on_ssb20, mv3(0.95), ssb20_with_baseline},
      {&on_ssb20, mv1(on_ssb20), ssb20_without_baseline},
      {&on_ssb20, mv2(on_ssb20), ssb20_without_baseline},
  };
  for (const auto& [pinned_on, spec, expected] : pins) {
    EvaluationCache cache;
    SolverContext context(*pinned_on, spec, &cache);
    SelectionResult result = sweep.Solve(spec, context).MoveValue();
    EXPECT_EQ(Describe(result), expected);
  }

  // A second identical frontier on the same cache: the roster tasks'
  // picks come from the pick memo and the anchors' probes are hits
  // except the branch-and-bound walk's, which bypasses the cache, so the
  // rerun evaluates no more than that anchor alone.
  auto evaluations = [](const SolverContext& context) {
    return context.counters().full_evaluations +
           context.counters().incremental_probes;
  };
  const ObjectiveSpec spec = mv3(0.5);
  EvaluationCache cache;
  SolverContext first(evaluator, spec, &cache);
  SelectionResult cold = sweep.Solve(spec, first).MoveValue();
  SolverContext second(evaluator, spec, &cache);
  SelectionResult warm = sweep.Solve(spec, second).MoveValue();
  EXPECT_EQ(Describe(warm), Describe(cold));

  EvaluationCache anchor_cache;
  SolverContext anchor(evaluator, spec, &anchor_cache);
  ASSERT_TRUE(SolverRegistry::Global()
                  .Find("branch-and-bound")
                  .value()
                  ->Solve(spec, anchor)
                  .ok());
  EXPECT_LE(evaluations(second), evaluations(anchor));
  EXPECT_LT(evaluations(second), evaluations(first));
}

// --- The pick memo ----------------------------------------------------------

TEST(SolvePickKey, EverySolveRelevantFieldChangesTheKey) {
  using Edit = void (*)(ObjectiveSpec&);
  const std::vector<Edit> edits = {
      [](ObjectiveSpec& s) { s.scenario = Scenario::kMV1BudgetLimit; },
      [](ObjectiveSpec& s) { s.budget_limit = Money::FromDollars(7); },
      [](ObjectiveSpec& s) { s.time_limit = Duration::FromSeconds(7); },
      [](ObjectiveSpec& s) { s.alpha = 0.25; },
      [](ObjectiveSpec& s) { s.time_includes_materialization = false; },
      [](ObjectiveSpec& s) { s.mv3_reference_time = Duration::FromMillis(7); },
      [](ObjectiveSpec& s) { s.mv3_reference_cost = Money::FromDollars(7); },
      [](ObjectiveSpec& s) { s.max_monthly_cost = Money::FromDollars(7); },
      [](ObjectiveSpec& s) { s.max_storage = DataSize::FromBytes(7); },
      [](ObjectiveSpec& s) { s.max_makespan = Duration::FromSeconds(7); },
  };
  const ObjectiveSpec base;
  std::set<std::string> keys = {SolvePickKey("greedy", base),
                                SolvePickKey("annealing", base)};
  for (Edit edit : edits) {
    ObjectiveSpec spec = base;
    edit(spec);
    keys.insert(SolvePickKey("greedy", spec));
  }
  EXPECT_EQ(keys.size(), edits.size() + 2);

  // What no single-objective pick reads leaves the key alone.
  CancelToken token;
  ObjectiveSpec unkeyed = base;
  unkeyed.cancel = &token;
  unkeyed.frontier_epsilon = 0.5;
  unkeyed.architecture_inner_solver = "annealing";
  unkeyed.architectures.push_back(ArchitectureSpec{});
  EXPECT_EQ(SolvePickKey("greedy", unkeyed), SolvePickKey("greedy", base));
}

TEST_F(ParetoSolverTest, PickMemoClearsAtItsCapAndKeepsPicksExact) {
  const Solver& sweep =
      *SolverRegistry::Global().Find("pareto-sweep").value();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  EvaluationCache fresh_cache;
  SolverContext fresh(*evaluator_, spec, &fresh_cache);
  const std::string expected = Describe(sweep.Solve(spec, fresh).MoveValue());
  const uint64_t all_tasks = fresh.counters().fresh_tasks;
  const size_t roster = fresh_cache.picks().size();
  ASSERT_GT(roster, 3u);
  ASSERT_LT(roster, all_tasks);

  // Three slots short of the cap: the sweep's fourth stored pick finds
  // the memo full and clears it, fillers and all.
  EvaluationCache cache;
  for (size_t i = 0; cache.picks().size() + 3 < EvaluationCache::kMaxPicks;
       ++i) {
    cache.InsertPick("filler " + std::to_string(i), {i});
  }
  SolverContext first(*evaluator_, spec, &cache);
  EXPECT_EQ(Describe(sweep.Solve(spec, first).MoveValue()), expected);
  EXPECT_EQ(first.counters().fresh_tasks, all_tasks);
  EXPECT_EQ(cache.FindPick("filler 0"), nullptr);
  EXPECT_EQ(cache.picks().size(), roster - 3);

  // The rerun solves the anchors and the three picks the clear dropped,
  // and reads the rest from the memo.
  SolverContext second(*evaluator_, spec, &cache);
  EXPECT_EQ(Describe(sweep.Solve(spec, second).MoveValue()), expected);
  EXPECT_EQ(second.counters().fresh_tasks, all_tasks - (roster - 3));
  EXPECT_EQ(cache.picks().size(), roster);
}

// A sweep cut short stores only the picks of the tasks that ran to the
// end. Deadlines spread over a complete sweep's wall time cut it in the
// anchors and in the roster; every pick a cut sweep stored must equal
// the one the complete sweep stored under the same key.
TEST(ParetoSweepServedInstance, CutSweepStoresOnlyCompletedPicks) {
  ServedInstance served = MakeServedInstance();
  const Solver& sweep =
      *SolverRegistry::Global().Find("pareto-sweep").value();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  EvaluationCache complete;
  SolverContext full(*served.evaluator, spec, &complete);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(sweep.Solve(spec, full).ok());
  const int64_t full_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();

  int cut = 0;
  for (int64_t eighth = 1; eighth < 8; ++eighth) {
    CancelToken deadline;
    deadline.ArmDeadlineAfterMillis(full_ms * eighth / 8);
    ObjectiveSpec timed = spec;
    timed.cancel = &deadline;
    EvaluationCache cache;
    SolverContext context(*served.evaluator, timed, &cache);
    cut += sweep.Solve(timed, context).MoveValue().cancelled ? 1 : 0;
    for (const auto& [key, pick] : cache.picks()) {
      const std::vector<size_t>* want = complete.FindPick(key);
      ASSERT_NE(want, nullptr);
      EXPECT_EQ(pick, *want);
    }
  }
  EXPECT_GT(cut, 0);
}

// --- Scenario requests ------------------------------------------------------

TEST(ParetoScenario, SolveFrontierAndProviderSweep) {
  ExperimentConfig config;
  ASSERT_EQ(config.scenario.frontier_solver, "pareto-sweep");
  CloudScenario scenario =
      CloudScenario::Create(config.scenario).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue();

  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  spec.max_monthly_cost = Money::FromDollars(400);

  FrontierRun run =
      scenario
          .Dispatch({.kind = AdvisorRequestKind::kFrontier,
                     .objective = spec,
                     .inline_workload = &workload})
          .MoveValue()
          .frontier;
  ASSERT_FALSE(run.frontier.empty());
  EXPECT_TRUE(run.best.feasible);
  // FrontierRun::frontier owns the points; the embedded result's copy
  // is cleared rather than duplicated.
  EXPECT_TRUE(run.best.frontier.empty());
  for (const ParetoPoint& point : run.frontier) {
    EXPECT_LE(point.score.monthly_cost, spec.max_monthly_cost);
  }

  // A single-objective solver degrades to a one-point frontier.
  FrontierRun single =
      scenario
          .Dispatch({.kind = AdvisorRequestKind::kFrontier,
                     .solver = "greedy",
                     .objective = spec,
                     .inline_workload = &workload})
          .MoveValue()
          .frontier;
  ASSERT_EQ(single.frontier.size(), 1u);
  EXPECT_EQ(single.frontier[0].score, single.best.multi);

  // The provider sweep keeps sorted-name order and rebuilds each sheet;
  // under pareto-sweep each row carries the sheet's whole frontier.
  std::vector<ProviderComparisonRow> rows =
      scenario
          .Dispatch({.kind = AdvisorRequestKind::kCompareProviders,
                     .solver = "pareto-sweep",
                     .objective = spec,
                     .inline_workload = &workload})
          .MoveValue()
          .providers;
  ASSERT_EQ(rows.size(), ProviderRegistry::Global().Names().size());
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].provider, rows[i].provider);
  }
  for (const ProviderComparisonRow& row : rows) {
    for (const ParetoPoint& point : row.run.selection.frontier) {
      EXPECT_LE(point.score.monthly_cost, spec.max_monthly_cost);
    }
  }
}

}  // namespace
}  // namespace cloudview
