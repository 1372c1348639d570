// Ablation: view maintenance (paper Section 4.2.3 / future work).
//
// The paper's experiments run a read-only session (maintenance billed
// zero); its cost models nevertheless include C_maintenanceV. This
// harness sweeps the update rate (delta per maintenance cycle) and the
// number of nightly cycles billed into the period, and reports when
// materialized views stop paying off on the MV3 blend — the crossover
// the maintenance formulas exist to find.

#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/experiments.h"

using namespace cloudview;
using bench::Pct;
using bench::Unwrap;

int main(int argc, char** argv) {
  bench::ParseSmoke(argc, argv);
  std::cout << "=== Ablation: maintenance cost vs update rate ===\n\n";

  TablePrinter table({"delta per cycle", "cycles", "views", "maint cost",
                      "total w/ MV", "total w/o MV", "MV3 rate"});
  table.SetTitle(
      "MV3 (alpha = 0.5, 10 queries) as maintenance load grows");

  for (double delta_gb : {0.0, 0.1, 0.5, 1.0, 2.0}) {
    for (int64_t cycles : {1, 10, 30}) {
      ExperimentConfig config;
      config.scenario.candidates.maintenance_delta =
          DataSize::FromGBRounded(delta_gb);
      config.scenario.maintenance_cycles = cycles;
      ExperimentRunner runner =
          Unwrap(ExperimentRunner::Create(config), "runner");
      const CloudScenario& scenario = runner.scenario();
      Workload workload =
          Unwrap(scenario.PaperWorkload(), "workload");

      ObjectiveSpec spec;
      spec.scenario = Scenario::kMV3Tradeoff;
      spec.alpha = 0.5;
      SolveRun run =
          Unwrap(scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                                    .objective = spec,
                                    .inline_workload = &workload}),
                 "run")
              .solve;

      table.AddRow(
          {StrFormat("%.1f GB", delta_gb), std::to_string(cycles),
           std::to_string(run.selection.evaluation.selected.size()),
           run.selection.evaluation.cost.maintenance.ToString(),
           run.selection.evaluation.cost.total().ToString(),
           run.baseline.cost.total().ToString(),
           Pct(1.0 - run.selection.objective_value)});
      bench::JsonLine("ablation_maintenance")
          .Num("delta_gb", delta_gb)
          .Int("cycles", cycles)
          .Int("views", static_cast<int64_t>(
                            run.selection.evaluation.selected.size()))
          .Num("maintenance_usd",
               run.selection.evaluation.cost.maintenance.dollars())
          .Num("total_with_usd",
               run.selection.evaluation.cost.total().dollars())
          .Num("total_without_usd", run.baseline.cost.total().dollars())
          .Num("mv3_rate", 1.0 - run.selection.objective_value)
          .Emit();
    }
  }
  table.Print(std::cout);
  std::cout
      << "\nReading: as the nightly delta and the billed cycles grow, the\n"
         "optimizer selects fewer views and the blended improvement\n"
         "shrinks — maintenance is the term that eventually kills\n"
         "materialization, exactly the tradeoff Formula 12 encodes.\n";
  return 0;
}
