// Supply-chain OLAP, end to end — the paper's running example made
// concrete:
//
//  1. generate the international-supply-chain sales dataset (Table 1),
//  2. take the 10-query roll-up workload (Section 6.1),
//  3. let the MV1 optimizer pick views under a budget,
//  4. *actually* materialize them in the engine and run every query,
//  5. verify the view-backed answers equal base-table answers,
//  6. print the itemized invoice for the simulated session.
//
//   $ ./build/example_supply_chain_olap [solver]
//
// `solver` is any registered strategy name (default knapsack-dp).

#include <iostream>

#include "core/experiments.h"
#include "core/optimizer/solver.h"
#include "engine/aggregator.h"
#include "engine/executor.h"
#include "engine/sales_generator.h"
#include "engine/view_store.h"
#include "pricing/billing.h"

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
  // 1. The deployment: the paper's Section 6 setup (10 GB sales subset,
  // five small instances) plus an in-memory sample to execute on.
  ExperimentConfig config;
  if (argc > 1) config.solver = argv[1];
  config.scenario.sales.sample_rows = 300'000;
  CloudScenario scenario =
      Check(CloudScenario::Create(config.scenario), "scenario");
  SalesDataset dataset =
      Check(GenerateSalesDataset(config.scenario.sales), "dataset");
  const CubeLattice& lattice = scenario.lattice();

  std::cout << "Dataset: " << dataset.logical_size() << " logical ("
            << dataset.logical_rows() << " rows), "
            << dataset.sample_rows() << " sampled in memory\n";

  // 2-3. Select views for the full workload under the paper's $2.4
  // budget (scenario MV1).
  Workload workload = Check(scenario.PaperWorkload(), "workload");
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = Money::FromCents(240);
  SolveRun run =
      Check(scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                               .solver = config.solver,
                               .objective = spec,
                               .inline_workload = &workload}),
            "run")
          .solve;

  std::cout << "\nMV1 selection under " << spec.budget_limit << " ("
            << config.solver << " solver):\n";
  for (const ViewCostInput& view :
       run.selection.evaluation.view_input.views) {
    std::cout << "  materialize " << view.name << "  (" << view.size
              << ", build " << view.materialization_time << ")\n";
  }
  std::cout << "  response time " << run.baseline.makespan << " -> "
            << run.selection.time << "   cost "
            << run.baseline.cost.total() << " -> "
            << run.selection.evaluation.cost.total() << "\n";

  // 4. Materialize the selected views for real and run the workload.
  ViewStore store(lattice);
  for (const ViewCostInput& view :
       run.selection.evaluation.view_input.views) {
    // Map the selected name back to its cuboid via the candidate list.
    for (CuboidId id = 0; id < lattice.num_nodes(); ++id) {
      if (lattice.NameOf(id) == view.name) {
        Status s = store.Materialize(
            Check(AggregateFromBase(dataset, lattice, id), "aggregate"));
        if (!s.ok()) std::cerr << s << "\n";
      }
    }
  }

  QueryExecutor executor(dataset, lattice, store);
  std::cout << "\nExecuting the workload on the sample:\n";
  int verified = 0;
  for (const QuerySpec& query : workload.queries()) {
    ExecutionPlan plan = executor.Plan(query.target);
    CuboidTable answer = Check(executor.Execute(query.target), "execute");
    // 5. Verify against a direct base-table aggregation.
    CuboidTable direct = Check(
        AggregateFromBase(dataset, lattice, query.target), "direct");
    bool ok = CuboidTablesEqual(answer, direct);
    verified += ok;
    std::cout << "  " << query.name << ": " << answer.num_rows()
              << " groups from "
              << (plan.from_view ? lattice.NameOf(plan.source)
                                 : "the fact table")
              << (ok ? "  [verified]" : "  [MISMATCH]") << "\n";
  }
  std::cout << verified << "/" << workload.size()
            << " answers verified against base aggregation\n";

  // 6. The session's itemized bill.
  BillingMeter meter(scenario.pricing());
  DeploymentSpec deployment = Check(
      scenario.MakeDeployment(workload, scenario.cluster()), "deploy");
  meter.RecordStorage("sales dataset", dataset.logical_size(),
                      deployment.storage_period);
  meter.RecordStorage("materialized views",
                      run.selection.evaluation.view_input.TotalSize(),
                      deployment.storage_period);
  meter.RecordCompute(
      "view materialization", scenario.cluster().instance,
      run.selection.evaluation.view_input.TotalMaterializationTime(),
      scenario.cluster().nodes);
  meter.RecordCompute("query processing", scenario.cluster().instance,
                      run.selection.evaluation.processing_time,
                      scenario.cluster().nodes);
  meter.RecordTransferOut(
      "query results",
      run.selection.evaluation.workload_input.TotalResultBytes());
  std::cout << "\nSession invoice (" << scenario.pricing().name()
            << "):\n";
  meter.invoice().Print(std::cout);
  return 0;
}
