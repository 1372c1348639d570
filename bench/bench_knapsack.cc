// Optimizer kernels: knapsack DP scaling with candidate count and
// capacity resolution, plus a solver-quality table (knapsack DP, greedy
// and annealing vs branch-and-bound's exact optimum on the paper's
// workloads) — the ablation behind DESIGN.md's "knapsack + exact
// repair" choice.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/experiments.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/knapsack.h"
#include "core/optimizer/selector.h"

using namespace cloudview;
using bench::Pct;
using bench::Unwrap;

namespace {

std::vector<KnapsackItem> RandomItems(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item.weight = rng.UniformInt(1'000, 500'000);   // micro-dollars
    item.value = rng.UniformInt(10'000, 3'600'000);  // milliseconds
  }
  return items;
}

void BM_KnapsackMaximize(benchmark::State& state) {
  auto items = RandomItems(state.range(0), 42);
  int64_t capacity = 2'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MaximizeValue(items, capacity).value().total_value);
  }
}
BENCHMARK(BM_KnapsackMaximize)->Arg(16)->Arg(64)->Arg(256);

void BM_KnapsackMinWeight(benchmark::State& state) {
  auto items = RandomItems(state.range(0), 43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinimizeWeightForValue(items, 5'000'000).value().total_weight);
  }
}
BENCHMARK(BM_KnapsackMinWeight)->Arg(16)->Arg(64)->Arg(256);

void BM_KnapsackBucketResolution(benchmark::State& state) {
  auto items = RandomItems(64, 44);
  KnapsackOptions options;
  options.max_buckets = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MaximizeValue(items, 2'000'000, options).value().total_value);
  }
}
BENCHMARK(BM_KnapsackBucketResolution)->Arg(256)->Arg(4096)->Arg(65536);

// Solver quality: for each scenario and workload size, how close the
// knapsack DP and the greedy baseline land to the exact optimum.
void PrintSolverQualityTable() {
  ExperimentConfig config;
  config.scenario.candidates.max_candidates = 8;
  ExperimentRunner runner =
      Unwrap(ExperimentRunner::Create(config), "runner");
  const CloudScenario& scenario = runner.scenario();
  Workload full = Unwrap(scenario.PaperWorkload(), "workload");

  TablePrinter table({"scenario", "queries",
                      "objective (branch-and-bound)", "knapsack-dp gap",
                      "greedy gap", "annealing gap"});
  table.SetTitle(
      "Solver quality vs the exact branch-and-bound optimum "
      "(8 candidates)");

  struct Case {
    Scenario scenario;
    size_t m;
    double budget, limit, alpha;
  };
  const Case cases[] = {
      {Scenario::kMV1BudgetLimit, 5, 1.20, 0, 0},
      {Scenario::kMV1BudgetLimit, 10, 2.40, 0, 0},
      {Scenario::kMV2TimeLimit, 5, 0, 0.99, 0},
      {Scenario::kMV2TimeLimit, 10, 0, 2.24, 0},
      {Scenario::kMV3Tradeoff, 5, 0, 0, 0.3},
      {Scenario::kMV3Tradeoff, 10, 0, 0, 0.7},
  };
  for (const Case& c : cases) {
    ObjectiveSpec spec;
    spec.scenario = c.scenario;
    spec.budget_limit = Money::FromDollarsRounded(c.budget);
    spec.time_limit = Duration::FromHoursRounded(c.limit);
    spec.alpha = c.alpha;
    if (c.scenario == Scenario::kMV2TimeLimit) {
      spec.time_includes_materialization = false;
    }
    Workload workload = full.Prefix(c.m);

    auto objective = [&](const SolveRun& run) -> double {
      switch (c.scenario) {
        case Scenario::kMV1BudgetLimit:
          return run.selection.time.hours();
        case Scenario::kMV2TimeLimit:
          return run.selection.evaluation.cost.total().dollars();
        case Scenario::kMV3Tradeoff:
          return run.selection.objective_value;
      }
      return 0;
    };

    AdvisorRequest request{.kind = AdvisorRequestKind::kSolve,
                           .objective = spec,
                           .inline_workload = &workload};
    request.solver = "branch-and-bound";
    SolveRun exact = Unwrap(scenario.Dispatch(request), "exact").solve;
    request.solver = "knapsack-dp";
    SolveRun dp = Unwrap(scenario.Dispatch(request), "dp").solve;
    request.solver = "greedy";
    SolveRun greedy = Unwrap(scenario.Dispatch(request), "greedy").solve;
    request.solver = "annealing";
    SolveRun annealed = Unwrap(scenario.Dispatch(request), "anneal").solve;

    double best = objective(exact);
    auto gap = [&](const SolveRun& run) {
      return best > 0 ? (objective(run) - best) / best : 0.0;
    };
    table.AddRow({ToString(c.scenario), std::to_string(c.m),
                  StrFormat("%.4f", best), Pct(gap(dp)),
                  Pct(gap(greedy)), Pct(gap(annealed))});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseSmoke(argc, argv);
  PrintSolverQualityTable();
  bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
