// Budget planner — what a cloud analyst actually wants from the paper's
// models: "for my workload, what does each extra dollar of budget buy,
// and where does the time/cost frontier bend?"
//
// Sweeps MV1 budgets and MV3 tradeoff weights over the 10-query sales
// workload and prints the achievable (time, cost) frontier.
//
//   $ ./build/example_budget_planner [solver]
//
// `solver` is any name registered in the SolverRegistry (default
// knapsack-dp; try local-search or annealing).

#include <iostream>

#include "common/str_format.h"
#include "common/table_printer.h"
#include "core/experiments.h"
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

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config;
  if (argc > 1) config.solver = argv[1];
  if (!SolverRegistry::Global().Contains(config.solver)) {
    std::cerr << "unknown solver '" << config.solver << "'; registered:";
    for (const std::string& name : SolverRegistry::Global().Names()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 1;
  }
  std::cout << "Solver strategy: " << config.solver << "\n\n";
  CloudScenario scenario =
      Check(CloudScenario::Create(config.scenario), "scenario");
  Workload workload = Check(scenario.PaperWorkload(), "workload");

  // Part 1: the budget staircase (MV1).
  TablePrinter budgets({"budget", "feasible", "views", "response time",
                        "actual cost", "time saved"});
  budgets.SetTitle("MV1: what each budget level buys (10 queries)");
  for (int cents : {30, 60, 90, 120, 180, 240, 480}) {
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV1BudgetLimit;
    spec.budget_limit = Money::FromCents(cents);
    SolveRun run =
        Check(scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                                 .solver = config.solver,
                                 .objective = spec,
                                 .inline_workload = &workload}),
              "run")
            .solve;
    budgets.AddRow(
        {spec.budget_limit.ToString(),
         run.selection.feasible ? "yes" : "NO",
         std::to_string(run.selection.evaluation.selected.size()),
         StrFormat("%.2f h", run.selection.time.hours()),
         run.selection.evaluation.cost.total().ToString(),
         FormatPercent(run.TimeImprovement(spec), 1)});
  }
  budgets.Print(std::cout);
  std::cout << "\n";

  // Part 2: the tradeoff frontier (MV3 across alpha).
  TablePrinter frontier({"alpha (time weight)", "instance tier", "views",
                         "time", "cost", "blend rate"});
  frontier.SetTitle(
      "MV3: the time/cost frontier as the preference weight moves");
  for (double alpha : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    ExperimentRunner runner =
        Check(ExperimentRunner::Create(config), "runner");
    std::vector<MV3Row> rows = Check(runner.RunMV3(alpha), "mv3");
    const MV3Row& row = rows.back();  // The 10-query row.
    frontier.AddRow({StrFormat("%.1f", alpha), row.instance,
                     std::to_string(row.views_selected),
                     StrFormat("%.2f h", row.time_with.hours()),
                     row.cost_with.ToString(),
                     FormatPercent(row.rate, 1)});
  }
  frontier.Print(std::cout);

  std::cout
      << "\nReading: small budgets buy nothing (infeasible or no views);\n"
         "past the first materialization the staircase flattens — extra\n"
         "dollars stop buying time once the workload is view-covered.\n"
         "On the MV3 frontier, cost-heavy weights (low alpha) drop to\n"
         "cheaper instance tiers and accept slower runs; time-heavy\n"
         "weights stay on the faster tier. The knee sits where the paper\n"
         "plots Figures 5(c)/(d).\n";
  return 0;
}
