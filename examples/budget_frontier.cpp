// Budget-constrained frontier — the multi-objective answer to "show me
// every sensible operating point under my monthly budget" (DESIGN.md
// §10): one frontier request returns the whole non-dominated
// (monthly cost, time, storage) surface instead of a single pick.
//
//   $ ./build/example_budget_frontier [solver]
//
// `solver` is a multi-objective strategy name (default pareto-sweep;
// try pareto-genetic). The example exits nonzero if the frontier is
// malformed: a point over budget, a dominated point, or a frontier that
// misses one of the single-objective solvers' optima.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/str_format.h"
#include "common/table_printer.h"
#include "core/experiments.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"

using namespace cloudview;

namespace {

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << what << ": " << result.status() << "\n";
    std::exit(1);
  }
  return result.MoveValue();
}

std::string ScoreRow(const MultiScore& score) {
  return StrFormat("%s/mo  %.2f h  %.2f GB",
                   score.monthly_cost.ToString().c_str(),
                   score.time.hours(), score.storage.gigabytes());
}

}  // namespace

int main(int argc, char** argv) {
  std::string solver = "pareto-sweep";
  if (argc > 1) solver = argv[1];
  if (!SolverRegistry::Global().Contains(solver)) {
    std::cerr << "unknown solver '" << solver << "'; registered:";
    for (const std::string& name : SolverRegistry::Global().Names()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 1;
  }

  ExperimentConfig config;
  CloudScenario scenario =
      Check(CloudScenario::Create(config.scenario), "scenario");
  Workload workload = Check(scenario.PaperWorkload(), "workload");

  // The tenant's ask: the MV3 tradeoff, but capped at a hard monthly
  // budget (the paper's sub-dollar session bills prorate to hundreds of
  // dollars a month at this 10 GB scale).
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  spec.max_monthly_cost = Money::FromDollars(400);

  std::cout << "Frontier solver: " << solver << "\n"
            << "Budget: " << spec.max_monthly_cost
            << "/month (hard constraint)\n\n";

  FrontierRun run =
      Check(scenario.Dispatch({.kind = AdvisorRequestKind::kFrontier,
                               .solver = solver,
                               .objective = spec,
                               .inline_workload = &workload}),
            "frontier")
          .frontier;

  TablePrinter table({"monthly cost", "response time", "extra storage",
                      "views", "found by"});
  table.SetTitle("Non-dominated selections under the budget");
  for (const ParetoPoint& point : run.frontier) {
    table.AddRow({point.score.monthly_cost.ToString(),
                  StrFormat("%.2f h", point.score.time.hours()),
                  StrFormat("%.2f GB", point.score.storage.gigabytes()),
                  std::to_string(point.selected.size()), point.origin});
  }
  table.Print(std::cout);
  std::cout << "\nBest under the blended objective: "
            << ScoreRow(run.best.multi) << " ("
            << run.best.evaluation.selected.size() << " views, solver "
            << run.best.solver << ")\n\n";

  // --- Validity gates (the CI contract for this example) ---------------

  int failures = 0;
  if (run.frontier.empty()) {
    std::cerr << "FAIL: empty frontier\n";
    ++failures;
  }

  // 1. Every point respects the budget.
  for (const ParetoPoint& point : run.frontier) {
    if (point.score.monthly_cost > spec.max_monthly_cost) {
      std::cerr << "FAIL: over-budget frontier point: "
                << ScoreRow(point.score) << "\n";
      ++failures;
    }
  }

  // 2. Points are mutually non-dominated.
  for (const ParetoPoint& a : run.frontier) {
    for (const ParetoPoint& b : run.frontier) {
      if (&a != &b && a.score.Dominates(b.score)) {
        std::cerr << "FAIL: dominated frontier point: "
                  << ScoreRow(b.score) << " (dominated by "
                  << ScoreRow(a.score) << ")\n";
        ++failures;
      }
    }
  }

  // 3. The frontier accounts for every single-objective solver's
  // optimum on the same spec.
  ParetoFront cover(spec.frontier_epsilon);
  for (const ParetoPoint& point : run.frontier) cover.Insert(point);
  for (const std::string& name : SolverRegistry::Global().Names()) {
    if (SolverRegistry::Global().Find(name).value()->multi_objective()) {
      continue;
    }
    SolveRun single =
        Check(scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                                 .solver = name,
                                 .objective = spec,
                                 .inline_workload = &workload}),
              "single-objective run")
            .solve;
    if (!single.selection.feasible) continue;
    if (!cover.Covers(single.selection.multi)) {
      std::cerr << "FAIL: frontier misses the " << name
                << " optimum: " << ScoreRow(single.selection.multi)
                << "\n";
      ++failures;
    }
  }

  // 4. The returned best is itself on (or dominated-matched by) the
  // frontier and feasible.
  if (!run.best.feasible) {
    std::cerr << "FAIL: best selection infeasible under the budget\n";
    ++failures;
  } else if (!cover.Covers(run.best.multi)) {
    std::cerr << "FAIL: best selection not covered by the frontier\n";
    ++failures;
  }

  // --- The same ask across every registered provider -------------------

  // A provider comparison under a multi-objective solver carries each
  // sheet's whole frontier in run.selection.frontier.
  std::vector<ProviderComparisonRow> providers =
      Check(scenario.Dispatch({.kind = AdvisorRequestKind::kCompareProviders,
                               .solver = solver,
                               .objective = spec,
                               .inline_workload = &workload}),
            "provider frontiers")
          .providers;
  TablePrinter sweep({"provider", "instance", "points", "cheapest/mo",
                      "fastest"});
  sweep.SetTitle("Frontier size per provider (same workload and budget)");
  for (const ProviderComparisonRow& row : providers) {
    const std::vector<ParetoPoint>& frontier = row.run.selection.frontier;
    std::string cheapest = "-";
    std::string fastest = "-";
    if (!frontier.empty()) {
      // ParetoFront order: first point is the cheapest per month.
      cheapest = frontier.front().score.monthly_cost.ToString();
      Duration best_time = frontier.front().score.time;
      for (const ParetoPoint& point : frontier) {
        if (point.score.time < best_time) best_time = point.score.time;
      }
      fastest = StrFormat("%.2f h", best_time.hours());
    }
    sweep.AddRow({row.provider, row.instance,
                  std::to_string(frontier.size()), cheapest, fastest});
  }
  sweep.Print(std::cout);

  if (failures > 0) {
    std::cerr << "\n" << failures << " frontier check(s) failed\n";
    return 1;
  }
  std::cout << "\nAll frontier checks passed: non-dominated, within "
               "budget, and covering every single-objective optimum.\n";
  return 0;
}
