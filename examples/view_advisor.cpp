// View advisor — the DBA-facing report a downstream user would run
// before committing to a view set: every candidate's footprint, its
// workload coverage, its standalone monetary delta, and how many
// workload repetitions it takes to amortize (core/cost/amortization).
//
// The provider is picked by ProviderRegistry name, so the same report
// runs under any registered price sheet:
//
//   $ ./build/examples/example_view_advisor [provider]

#include <iostream>

#include "common/str_format.h"
#include "common/table_printer.h"
#include "core/cost/amortization.h"
#include "core/experiments.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/solver.h"
#include "pricing/provider_registry.h"

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
  if (argc > 1) {
    config.scenario.provider = argv[1];
    if (!ProviderRegistry::Global().Contains(config.scenario.provider)) {
      std::cerr << "unknown provider '" << config.scenario.provider
                << "'; registered:";
      for (const std::string& name : ProviderRegistry::Global().Names()) {
        std::cerr << " " << name;
      }
      std::cerr << "\n";
      return 1;
    }
    // Some catalogs lack the default "small" tier; rent the cheapest
    // >= 1-unit instance of the chosen provider instead.
    PricingModel model = Check(
        ProviderRegistry::Global().Model(config.scenario.provider),
        "provider");
    config.scenario.instance_name =
        Check(model.instances().CheapestWithUnits(1.0), "instance").name;
  }
  CloudScenario scenario =
      Check(CloudScenario::Create(config.scenario), "scenario");
  const CubeLattice& lattice = scenario.lattice();
  Workload workload = Check(scenario.PaperWorkload(), "workload");
  std::cout << "Provider: " << scenario.pricing().name() << " ("
            << ToString(scenario.pricing().compute_granularity())
            << "-billed compute)\n";

  DeploymentSpec deployment = Check(
      scenario.MakeDeployment(workload, scenario.cluster()), "deploy");
  CandidateGenOptions options = config.scenario.candidates;
  std::vector<ViewCandidate> candidates = Check(
      GenerateCandidates(lattice, workload, scenario.simulator(),
                         scenario.cluster(), options),
      "candidates");
  SelectionEvaluator evaluator = Check(
      SelectionEvaluator::Create(lattice, workload, scenario.simulator(),
                                 scenario.cluster(),
                                 scenario.cost_model(), deployment,
                                 candidates),
      "evaluator");

  const SubsetEvaluation& base = evaluator.baseline();
  std::cout << "Workload: " << workload.size() << " queries, no views: "
            << StrFormat("%.2f h", base.processing_time.hours())
            << " processing, " << base.cost.total() << " per run\n\n";

  TablePrinter table({"candidate view", "size", "build", "covers",
                      "run saving", "cost delta", "amortizes after"});
  table.SetTitle("Candidate analysis (standalone, against no views)");
  for (size_t c = 0; c < evaluator.num_candidates(); ++c) {
    const ViewCandidate& candidate = evaluator.candidates()[c];
    size_t covered = 0;
    for (const QuerySpec& q : workload.queries()) {
      if (lattice.CanAnswer(candidate.view, q.target)) ++covered;
    }
    SubsetEvaluation solo = Check(evaluator.Evaluate({c}), "solo");
    Money delta = Check(evaluator.StandaloneCostDelta(c), "delta");

    AmortizationInputs inputs;
    inputs.run_cost_without_views = base.cost.processing;
    inputs.run_cost_with_views = solo.cost.processing;
    inputs.materialization_cost = solo.cost.materialization;
    AmortizationReport amort =
        Check(ComputeAmortization(inputs), "amortization");

    table.AddRow(
        {candidate.name, candidate.size.ToString(),
         StrFormat("%.0f s", candidate.materialization_time.seconds()),
         StrFormat("%zu/%zu", covered, workload.size()),
         (base.processing_time - solo.processing_time).ToString(),
         delta.ToString(),
         amort.amortizes
             ? StrFormat("%lld run(s)",
                         static_cast<long long>(amort.break_even_runs))
             : "never"});
  }
  table.Print(std::cout);

  // Second opinion: run every registered solver strategy on the MV3
  // blend and show where they land — the advisor's sanity check that
  // the recommendation is not a single-heuristic artifact.
  ViewSelector selector(evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  TablePrinter solvers({"solver", "views", "time", "cost", "blend"});
  solvers.SetTitle("Strategy cross-check (MV3, alpha = 0.5)");
  for (const std::string& name : SolverRegistry::Global().Names()) {
    auto result = selector.Solve(spec, name);
    if (!result.ok()) continue;  // A strategy this setup cannot run.
    solvers.AddRow(
        {name,
         std::to_string(result.value().evaluation.selected.size()),
         StrFormat("%.2f h", result.value().time.hours()),
         result.value().evaluation.cost.total().ToString(),
         StrFormat("%.4f", result.value().objective_value)});
  }
  solvers.Print(std::cout);

  std::cout
      << "\nReading: 'cost delta' is the standalone change of one session's\n"
         "total bill (negative = the view pays for itself immediately);\n"
         "'amortizes after' counts workload repetitions until cumulative\n"
         "processing savings cover the one-time materialization. Broad\n"
         "mid-lattice views cover many queries and amortize within a run\n"
         "or two; narrow day-level views only pay off for the queries\n"
         "they answer directly.\n";
  return 0;
}
