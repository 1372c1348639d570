// Solver-strategy comparison: every registered solver on shared
// workloads — wall time per solve, objective gap vs branch-and-bound's
// certified optimum, and subsets scored per second — plus
// branch-and-bound's scaling and a solver census on SSB instances hard
// enough to rank the heuristics. (What the incremental evaluation layer
// buys over exact Evaluate() rebuilds is bench_evaluator's
// op=full_evaluate vs op=peek_toggle rows.)
// Rows are emitted in the bench_util.h BENCH_JSON format for the perf
// trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/experiments.h"
#include "core/optimizer/branch_and_bound.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/solver.h"
#include "core/scenario.h"
#include "engine/sales_generator.h"
#include "pricing/providers.h"
#include "workload/ssb.h"
#include "workload/workload.h"

using namespace cloudview;
using bench::Hours;
using bench::JsonLine;
using bench::Pct;
using bench::Unwrap;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One self-owning evaluation substrate (the evaluator borrows the
// lattice, simulator and cost model, so they live here together).
struct Instance {
  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
  Workload workload;
  DeploymentSpec deployment;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

// The paper's sales cube at a size every registered solver handles.
Instance MakeSalesInstance(size_t workload_size, size_t max_candidates) {
  Instance inst;
  SalesConfig config;
  config.logical_size = DataSize::FromGB(10);
  inst.lattice = std::make_unique<CubeLattice>(
      Unwrap(CubeLattice::Build(Unwrap(MakeSalesSchema(config), "schema")),
             "lattice"));
  MapReduceParams params;
  params.job_startup = Duration::FromSeconds(45);
  params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
  inst.simulator =
      std::make_unique<MapReduceSimulator>(*inst.lattice, params);
  inst.pricing = std::make_unique<PricingModel>(
      ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
          BillingGranularity::kSecond));
  inst.cost_model = std::make_unique<CloudCostModel>(*inst.pricing);
  inst.cluster =
      ClusterSpec{Unwrap(inst.pricing->instances().Find("small"), "type"),
                  5};
  inst.workload = Unwrap(MakePaperWorkload(*inst.lattice), "workload")
                      .Prefix(workload_size);

  inst.deployment.instance = inst.cluster.instance;
  inst.deployment.nb_instances = inst.cluster.nodes;
  inst.deployment.storage_period = Months::FromMilli(4);
  inst.deployment.base_storage =
      StorageTimeline(inst.lattice->fact_scan_size());
  inst.deployment.maintenance_cycles = 0;

  CandidateGenOptions options;
  options.max_candidates = max_candidates;
  options.max_rows_fraction = 0.05;
  inst.evaluator = std::make_unique<SelectionEvaluator>(Unwrap(
      SelectionEvaluator::Create(
          *inst.lattice, inst.workload, *inst.simulator, inst.cluster,
          *inst.cost_model, inst.deployment,
          Unwrap(GenerateCandidates(*inst.lattice, inst.workload,
                                    *inst.simulator, inst.cluster,
                                    options),
                 "candidates")),
      "evaluator"));
  return inst;
}

// The 4-dimensional SSB cube with a dashboard-style query mix (every
// SSB query shape recurring at several frequencies): the larger
// instance branch-and-bound's scaling and the census run on.
Instance MakeSsbInstance(size_t max_candidates, int workload_repeats) {
  Instance inst;
  SsbConfig config;
  inst.lattice = std::make_unique<CubeLattice>(Unwrap(
      CubeLattice::Build(Unwrap(MakeSsbSchema(config), "schema")),
      "lattice"));
  inst.simulator = std::make_unique<MapReduceSimulator>(
      *inst.lattice, MapReduceParams{});
  inst.pricing = std::make_unique<PricingModel>(
      ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
          BillingGranularity::kSecond));
  inst.cost_model = std::make_unique<CloudCostModel>(*inst.pricing);
  inst.cluster =
      ClusterSpec{Unwrap(inst.pricing->instances().Find("small"), "type"),
                  5};
  Workload ssb = Unwrap(MakeSsbWorkload(*inst.lattice), "workload");
  std::vector<QuerySpec> mix;
  for (int r = 0; r < workload_repeats; ++r) {
    for (QuerySpec query : ssb.queries()) {
      query.frequency = static_cast<uint64_t>(r + 1);
      mix.push_back(std::move(query));
    }
  }
  inst.workload = Workload(std::move(mix));

  inst.deployment.instance = inst.cluster.instance;
  inst.deployment.nb_instances = inst.cluster.nodes;
  inst.deployment.storage_period = Months::FromMilli(3);
  inst.deployment.base_storage =
      StorageTimeline(inst.lattice->fact_scan_size());
  inst.deployment.maintenance_cycles = 0;

  CandidateGenOptions options;
  options.max_candidates = max_candidates;
  options.max_rows_fraction = 0.10;
  inst.evaluator = std::make_unique<SelectionEvaluator>(Unwrap(
      SelectionEvaluator::Create(
          *inst.lattice, inst.workload, *inst.simulator, inst.cluster,
          *inst.cost_model, inst.deployment,
          Unwrap(GenerateCandidates(*inst.lattice, inst.workload,
                                    *inst.simulator, inst.cluster,
                                    options),
                 "candidates")),
      "evaluator"));
  return inst;
}

struct Measured {
  SelectionResult result;
  double wall_ms_per_solve = 0.0;
  double subsets_per_sec = 0.0;
};

// Times repeated fresh solves (fresh memo per repetition, so caching
// across repetitions cannot flatter a solver).
Measured MeasureSolver(const Solver& solver, const Instance& inst,
                       const ObjectiveSpec& spec) {
  Measured out;
  uint64_t scored = 0;
  int reps = 0;
  auto start = std::chrono::steady_clock::now();
  do {
    EvaluationCache cache;
    SolverContext context(*inst.evaluator, spec, &cache);
    out.result = Unwrap(solver.Solve(spec, context), "solve");
    scored += context.counters().subsets_scored();
    ++reps;
  } while (MillisSince(start) < bench::MeasureBudgetMs(100.0) &&
           reps < 50);
  double total_ms = MillisSince(start);
  out.wall_ms_per_solve = total_ms / reps;
  out.subsets_per_sec = 1000.0 * static_cast<double>(scored) / total_ms;
  return out;
}

double ObjectiveOf(const ObjectiveSpec& spec, const SelectionResult& r) {
  switch (spec.scenario) {
    case Scenario::kMV1BudgetLimit:
      return r.time.hours();
    case Scenario::kMV2TimeLimit:
      return r.evaluation.cost.total().dollars();
    case Scenario::kMV3Tradeoff:
      return r.objective_value;
  }
  return 0;
}

// --- Part 1: every registered strategy vs branch-and-bound ------------------

void PrintSolverComparison() {
  Instance inst = MakeSalesInstance(/*workload_size=*/10,
                                    /*max_candidates=*/12);
  std::cout << "Instance: " << inst.workload.size() << " queries, "
            << inst.evaluator->num_candidates() << " candidates\n\n";

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

  const Solver& bnb = *Unwrap(
      SolverRegistry::Global().Find("branch-and-bound"), "branch-and-bound");

  TablePrinter table({"scenario", "solver", "views", "objective",
                      "gap vs b&b", "wall/solve", "subsets/sec"});
  table.SetTitle("Registered solver strategies on the paper workload");

  for (const ObjectiveSpec& spec : {mv1, mv2, mv3}) {
    Measured exact = MeasureSolver(bnb, inst, spec);
    double best = ObjectiveOf(spec, exact.result);
    for (const std::string& name : SolverRegistry::Global().Names()) {
      const Solver& solver =
          *Unwrap(SolverRegistry::Global().Find(name), "solver");
      Measured m = name == "branch-and-bound"
                       ? exact
                       : MeasureSolver(solver, inst, spec);
      double objective = ObjectiveOf(spec, m.result);
      double gap = best > 0 ? (objective - best) / best : 0.0;
      table.AddRow(
          {ToString(spec.scenario), name,
           std::to_string(m.result.evaluation.selected.size()),
           StrFormat("%.4f", objective), Pct(gap),
           StrFormat("%.2f ms", m.wall_ms_per_solve),
           StrFormat("%.0f", m.subsets_per_sec)});
      JsonLine("solvers")
          .Str("scenario", ToString(spec.scenario))
          .Str("solver", name)
          .Num("objective", objective)
          .Num("gap_vs_bnb", gap)
          .Num("wall_ms_per_solve", m.wall_ms_per_solve)
          .Num("subsets_per_sec", m.subsets_per_sec)
          .Int("views", static_cast<int64_t>(
                            m.result.evaluation.selected.size()))
          .Emit();
    }
  }
  table.Print(std::cout);
  std::cout << "\n";
}

// perfbench's served SSB session: the scenario's default SSB config
// (its workload, deployment and price sheet) with `max_candidates`
// candidates.
struct ServedInstance {
  CloudScenario scenario;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

ServedInstance MakeServedSsbInstance(size_t max_candidates) {
  ScenarioConfig config;
  config.schema = "ssb";
  config.candidates.max_candidates = max_candidates;
  CloudScenario scenario = Unwrap(CloudScenario::Create(config), "scenario");
  Workload workload = Unwrap(scenario.DefaultWorkload(), "workload");
  DeploymentSpec deployment = Unwrap(
      scenario.MakeDeployment(workload, scenario.cluster()), "deployment");
  auto evaluator = std::make_unique<SelectionEvaluator>(Unwrap(
      SelectionEvaluator::Create(
          scenario.lattice(), workload, scenario.simulator(),
          scenario.cluster(), scenario.cost_model(), deployment,
          Unwrap(GenerateCandidates(scenario.lattice(), workload,
                                    scenario.simulator(), scenario.cluster(),
                                    config.candidates),
                 "candidates")),
      "evaluator"));
  return ServedInstance{std::move(scenario), std::move(evaluator)};
}

// --- Part 2: branch-and-bound past the enumeration wall ---------------------

// The exact-search headline (DESIGN.md §13): branch-and-bound on SSB
// rosters of 20, 50 and 100 candidates — sizes where enumerating 2^n
// subsets is 1e6x past hopeless — with the proof status, certified gap,
// search telemetry and EvaluationCache behavior (hits/misses/evictions)
// in the regression rows; nodes_expanded is gated exactly.
void PrintBranchAndBoundScaling() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;

  TablePrinter table({"candidates", "wall/solve", "nodes", "proven", "gap",
                      "views", "cache hit rate"});
  table.SetTitle(
      "Branch-and-bound scaling on SSB (enumeration wall is 20)");

  for (size_t max_candidates : {20, 50, 100}) {
    Instance inst = MakeSsbInstance(max_candidates, /*workload_repeats=*/3);
    size_t n = inst.evaluator->num_candidates();

    uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
    SearchStats stats;
    std::vector<size_t> selection;
    uint64_t scored = 0;
    int reps = 0;
    auto start = std::chrono::steady_clock::now();
    do {
      EvaluationCache cache;
      SolverContext context(*inst.evaluator, spec, &cache);
      stats = SearchStats();
      BranchAndBoundOptions options;
      options.stats = &stats;
      SelectionResult result =
          Unwrap(SolveBranchAndBound(context, options), "bnb");
      selection = result.evaluation.selected;
      scored += context.counters().subsets_scored();
      EvaluationCache::AggregateCounts counts = cache.aggregate();
      cache_hits = counts.hits;
      cache_misses = counts.misses();
      cache_evictions = counts.evictions;
      ++reps;
    } while (MillisSince(start) < bench::MeasureBudgetMs(100.0) &&
             reps < 20);
    double total_ms = MillisSince(start);
    double wall_ms = total_ms / reps;
    double subsets_per_sec =
        1000.0 * static_cast<double>(scored) / total_ms;

    double hit_rate =
        cache_hits + cache_misses > 0
            ? static_cast<double>(cache_hits) /
                  static_cast<double>(cache_hits + cache_misses)
            : 0.0;
    table.AddRow({std::to_string(n), StrFormat("%.2f ms", wall_ms),
                  std::to_string(stats.nodes_expanded),
                  stats.proven_optimal ? "yes" : "NO",
                  StrFormat("%.4f", stats.gap_fraction),
                  std::to_string(selection.size()), Pct(hit_rate)});
    JsonLine("solvers")
        .Str("sweep", "branch_and_bound")
        // String so the roster size lands in the row's identity key.
        .Str("candidates", std::to_string(n))
        .Num("wall_ms_per_solve", wall_ms)
        .Num("subsets_per_sec", subsets_per_sec)
        .Num("gap_fraction", stats.gap_fraction)
        .Num("cache_hit_rate", hit_rate)
        .Int("nodes_expanded", static_cast<int64_t>(stats.nodes_expanded))
        .Int("bound_evaluations",
             static_cast<int64_t>(stats.bound_evaluations))
        .Int("pruned_by_bound",
             static_cast<int64_t>(stats.pruned_by_bound))
        .Int("proven_optimal", stats.proven_optimal ? 1 : 0)
        .Int("cache_evictions", static_cast<int64_t>(cache_evictions))
        .Int("views", static_cast<int64_t>(selection.size()))
        .Emit();
  }
  table.Print(std::cout);
  std::cout << "\n";
}

// The walks where cost binds, on the served 100-candidate session: an
// MV1 budget below the cheapest reachable selection's cost, a slack MV2
// limit, and MV3 at a low alpha. These are the
// expensive branch-and-bound solves of perfbench's whatif-warm, so
// their nodes_expanded and bound_evaluations are gated exactly.
void PrintCostBindingWalks() {
  ServedInstance inst = MakeServedSsbInstance(100);
  const SelectionEvaluator& evaluator = *inst.evaluator;
  const SubsetEvaluation& baseline = evaluator.baseline();
  struct Walk {
    const char* label;
    ObjectiveSpec spec;
  };
  std::vector<Walk> walks(3);
  walks[0].label = "mv1_budget_0.42";
  walks[0].spec.scenario = Scenario::kMV1BudgetLimit;
  walks[0].spec.budget_limit = baseline.cost.total().ScaleBy(42, 100);
  walks[1].label = "mv2_limit_0.75";
  walks[1].spec.scenario = Scenario::kMV2TimeLimit;
  walks[1].spec.time_limit =
      Duration::FromMillis(baseline.makespan.millis() * 75 / 100);
  walks[2].label = "mv3_alpha_0.1";
  walks[2].spec.scenario = Scenario::kMV3Tradeoff;
  walks[2].spec.alpha = 0.1;

  TablePrinter table({"walk", "wall/solve", "nodes", "bounds", "proven",
                      "views"});
  table.SetTitle(StrFormat(
      "Branch-and-bound where cost binds (served SSB, %zu candidates)",
      evaluator.num_candidates()));
  for (const Walk& walk : walks) {
    SearchStats stats;
    std::vector<size_t> selection;
    int reps = 0;
    auto start = std::chrono::steady_clock::now();
    do {
      EvaluationCache cache;
      SolverContext context(evaluator, walk.spec, &cache);
      stats = SearchStats();
      BranchAndBoundOptions options;
      options.stats = &stats;
      selection = Unwrap(SolveBranchAndBound(context, options), "bnb")
                      .evaluation.selected;
      ++reps;
    } while (MillisSince(start) < bench::MeasureBudgetMs(300.0) &&
             reps < 10);
    double wall_ms = MillisSince(start) / reps;
    table.AddRow({walk.label, StrFormat("%.2f ms", wall_ms),
                  std::to_string(stats.nodes_expanded),
                  std::to_string(stats.bound_evaluations),
                  stats.proven_optimal ? "yes" : "NO",
                  std::to_string(selection.size())});
    JsonLine("solvers")
        .Str("sweep", "branch_and_bound_cost_binding")
        .Str("walk", walk.label)
        .Num("wall_ms_per_solve", wall_ms)
        .Int("nodes_expanded", static_cast<int64_t>(stats.nodes_expanded))
        .Int("bound_evaluations",
             static_cast<int64_t>(stats.bound_evaluations))
        .Int("pruned_by_bound",
             static_cast<int64_t>(stats.pruned_by_bound))
        .Int("proven_optimal", stats.proven_optimal ? 1 : 0)
        .Int("views", static_cast<int64_t>(selection.size()))
        .Emit();
  }
  table.Print(std::cout);
  std::cout << "\n";
}

// --- Part 3: solver census on hard instances --------------------------------

// Ranks every single-objective solver on quality against time (the
// framing of arXiv 2606.03772 and arXiv 2403.19906) where the
// heuristics stop agreeing: perfbench's served SSB session config at
// 50, 100 and all 138 candidates, over a 39-spec grid — 21 MV3 alphas
// (0, 0.05, ..., 1), then 9 MV1 budgets and 9 MV2 limits at 0.1 ... 0.9
// of the baseline's cost and makespan. The reference is
// branch-and-bound's certified optimum on each spec. Per solver: the
// specs it solves to the optimum's lexicographic score, the specs where
// it misses feasibility the optimum reaches, its largest objective gap,
// and its median wall time per solve (one fresh-cache solve per spec).

std::vector<ObjectiveSpec> CensusGrid(const SelectionEvaluator& evaluator) {
  std::vector<ObjectiveSpec> specs;
  for (int step = 0; step <= 20; ++step) {
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV3Tradeoff;
    spec.alpha = step / 20.0;
    specs.push_back(spec);
  }
  const SubsetEvaluation& baseline = evaluator.baseline();
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

void PrintSolverCensus() {
  std::vector<const Solver*> roster;
  size_t bnb = 0;
  for (const std::string& name : SolverRegistry::Global().Names()) {
    const Solver* solver =
        Unwrap(SolverRegistry::Global().Find(name), "solver");
    if (solver->multi_objective()) continue;
    if (name == "branch-and-bound") bnb = roster.size();
    roster.push_back(solver);
  }

  TablePrinter table({"candidates", "solver", "at optimum",
                      "infeasible", "max gap", "median wall"});
  table.SetTitle("Solver census vs branch-and-bound (SSB, 39 specs)");
  std::string proofs;
  for (size_t max_candidates : {50, 100, 138}) {
    ServedInstance inst = MakeServedSsbInstance(max_candidates);
    const SelectionEvaluator& evaluator = *inst.evaluator;
    const std::vector<ObjectiveSpec> grid = CensusGrid(evaluator);

    struct Tally {
      int at_optimum = 0;
      int infeasible = 0;
      double max_gap = 0.0;
      std::vector<double> wall_ms;
    };
    std::vector<Tally> tallies(roster.size());
    int proven = 0;
    for (const ObjectiveSpec& spec : grid) {
      std::vector<SelectionResult> results;
      for (size_t i = 0; i < roster.size(); ++i) {
        EvaluationCache cache;
        SolverContext context(evaluator, spec, &cache);
        auto start = std::chrono::steady_clock::now();
        results.push_back(Unwrap(roster[i]->Solve(spec, context), "solve"));
        tallies[i].wall_ms.push_back(MillisSince(start));
      }
      const SelectionResult& optimum = results[bnb];
      if (optimum.gap_fraction == 0.0) ++proven;
      SolverContext scoring(evaluator, spec);
      const double best = ObjectiveOf(spec, optimum);
      for (size_t i = 0; i < roster.size(); ++i) {
        const SelectionResult& r = results[i];
        if (scoring.ScoreOf(r.evaluation) ==
            scoring.ScoreOf(optimum.evaluation)) {
          ++tallies[i].at_optimum;
        }
        if (!optimum.feasible) continue;
        if (!r.feasible) {
          ++tallies[i].infeasible;
          continue;
        }
        double gap = best > 0 ? (ObjectiveOf(spec, r) - best) / best : 0.0;
        tallies[i].max_gap = std::max(tallies[i].max_gap, gap);
      }
    }

    const size_t n = evaluator.num_candidates();
    for (size_t i = 0; i < roster.size(); ++i) {
      Tally& t = tallies[i];
      std::sort(t.wall_ms.begin(), t.wall_ms.end());
      double median_ms = t.wall_ms[t.wall_ms.size() / 2];
      const std::string name(roster[i]->name());
      table.AddRow({std::to_string(n), name,
                    StrFormat("%d/%zu", t.at_optimum, grid.size()),
                    std::to_string(t.infeasible), Pct(t.max_gap),
                    StrFormat("%.3f ms", median_ms)});
      JsonLine("solvers")
          .Str("sweep", "census")
          // Strings so they land in the row's identity key.
          .Str("candidates", std::to_string(n))
          .Str("solver", name)
          .Int("specs", static_cast<int64_t>(grid.size()))
          .Int("at_optimum", t.at_optimum)
          .Int("infeasible", t.infeasible)
          .Num("max_gap", t.max_gap)
          .Num("median_wall_ms", median_ms)
          .Emit();
    }
    proofs += StrFormat("%zu candidates: b&b proved %d/%zu optima\n", n,
                        proven, grid.size());
  }
  table.Print(std::cout);
  std::cout << proofs << "\n";
}

// --- Microbenchmarks: the two evaluation paths head to head -----------------

Instance& SharedSsbInstance() {
  static Instance* inst = new Instance(MakeSsbInstance(20, 3));
  return *inst;
}

void BM_FullEvaluate(benchmark::State& state) {
  Instance& inst = SharedSsbInstance();
  size_t n = inst.evaluator->num_candidates();
  Rng rng(42);
  std::vector<size_t> subset;
  for (size_t c = 0; c < n; ++c) {
    if (rng.Bernoulli(0.5)) subset.push_back(c);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inst.evaluator->Evaluate(subset).value().cost.total().micros());
  }
}
BENCHMARK(BM_FullEvaluate);

void BM_IncrementalToggleAndCost(benchmark::State& state) {
  Instance& inst = SharedSsbInstance();
  size_t n = inst.evaluator->num_candidates();
  SubsetState subset_state(*inst.evaluator);
  Rng rng(43);
  for (auto _ : state) {
    subset_state.Toggle(static_cast<size_t>(rng.Uniform(n)));
    benchmark::DoNotOptimize(
        inst.evaluator->FastTotalCost(subset_state).micros());
  }
}
BENCHMARK(BM_IncrementalToggleAndCost);

}  // namespace

int main(int argc, char** argv) {
  bench::ParseSmoke(argc, argv);
  PrintSolverComparison();
  PrintBranchAndBoundScaling();
  PrintCostBindingWalks();
  PrintSolverCensus();
  bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
