// Choosing a deployment architecture — the joint (architecture, view
// set) optimization (DESIGN.md §15): one solve-joint request races a view
// selection per candidate fleet (replicas, availability zones, spot vs
// on-demand vs reserved) and returns the four-axis frontier of monthly
// cost, response time, extra storage and expected unavailability.
//
//   $ ./build/example_architecture [inner-solver]
//
// `inner-solver` is the single-objective strategy each architecture's
// solve runs (default knapsack-dp). The example exits nonzero if the
// joint frontier fails its headline promise on the SSB roster: some
// spot or multi-AZ point must strictly undercut the single-node
// on-demand optimum's monthly bill at no worse response time.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/str_format.h"
#include "common/table_printer.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"
#include "core/scenario.h"

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

/// "99.9985%" from an unavailability in parts-per-million.
std::string Availability(int64_t unavailability_ppm) {
  return StrFormat("%.4f%%",
                   100.0 * (1'000'000 - unavailability_ppm) / 1'000'000);
}

}  // namespace

int main(int argc, char** argv) {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  if (argc > 1) spec.architecture_inner_solver = argv[1];

  // The Star Schema Benchmark instance, priced on the 2012 AWS sheet —
  // the scale where spot's ~0.31x compute rate starts paying for a
  // second look at the deployment.
  ScenarioConfig config;
  config.schema = "ssb";
  CloudScenario scenario =
      Check(CloudScenario::Create(config), "scenario");
  Workload workload = Check(scenario.DefaultWorkload(), "workload");

  // The legacy answer: views only, deployment fixed at single-node
  // on-demand.
  SolveRun fixed =
      Check(scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                               .objective = spec,
                               .inline_workload = &workload}),
            "fixed run")
          .solve;

  // The joint answer: the same solve raced across the architecture
  // roster (single-AZ on-demand, 2-AZ replicated, spot x 1/2 AZ, and —
  // on sheets that price it — a 3-AZ reserved HA tier).
  JointRun joint =
      Check(scenario.Dispatch({.kind = AdvisorRequestKind::kSolveJoint,
                               .objective = spec,
                               .inline_workload = &workload}),
            "joint solve")
          .joint;

  std::cout << "SSB workload: " << workload.size() << " queries\n"
            << "Fixed deployment (single-az-on-demand): "
            << fixed.selection.multi.monthly_cost << "/month, "
            << StrFormat("%.2f h", fixed.selection.multi.time.hours())
            << " response time\n\n";

  TablePrinter table({"architecture", "monthly cost", "response time",
                      "extra storage", "availability", "views",
                      "found by"});
  table.SetTitle("Joint (architecture, view set) frontier");
  for (const ParetoPoint& point : joint.frontier) {
    table.AddRow(
        {point.architecture, point.score.monthly_cost.ToString(),
         StrFormat("%.2f h", point.score.time.hours()),
         StrFormat("%.2f GB", point.score.storage.gigabytes()),
         Availability(point.score.unavailability_ppm),
         std::to_string(point.selected.size()), point.origin});
  }
  table.Print(std::cout);

  std::cout << "\nBest pick: " << joint.best_architecture << " at "
            << joint.best.multi.monthly_cost << "/month ("
            << joint.best.evaluation.selected.size() << " views)\n";

  // --- The headline check the CI example gate runs -----------------------
  // Some spot or multi-AZ point must strictly undercut the single-node
  // on-demand optimum's monthly bill at no worse response time.
  const MultiScore& fixed_optimum = fixed.selection.multi;
  bool undercut = false;
  for (const ParetoPoint& point : joint.frontier) {
    if (point.architecture == "single-az-on-demand") continue;
    if (point.score.monthly_cost < fixed_optimum.monthly_cost &&
        point.score.time <= fixed_optimum.time) {
      undercut = true;
      std::cout << "Undercut: " << point.architecture << " saves "
                << (fixed_optimum.monthly_cost -
                    point.score.monthly_cost)
                << "/month at no response-time cost, trading down to "
                << Availability(point.score.unavailability_ppm)
                << " availability\n";
      break;
    }
  }
  if (!undercut) {
    std::cerr << "no spot/multi-AZ frontier point undercuts the fixed "
                 "single-node on-demand optimum\n";
    return 1;
  }
  return 0;
}
