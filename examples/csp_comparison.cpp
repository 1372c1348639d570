// CSP comparison — the paper's first future-work item ("include pricing
// models from several CSPs"): the same 10-query workload and view
// selection, re-costed by a compare-providers request under every
// sheet in the ProviderRegistry — different rate structures, billing
// granularities, ingress policies, and (nimbus) per-request charges,
// reserved rates and a free tier.
//
//   $ ./build/examples/example_csp_comparison

#include <iostream>

#include "common/str_format.h"
#include "common/table_printer.h"
#include "core/experiments.h"
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

int main() {
  const ProviderRegistry& registry = ProviderRegistry::Global();
  std::cout << "Same workload, " << registry.Names().size()
            << " cloud providers (MV3, alpha = 0.5):\n\n";

  ExperimentConfig config;
  CloudScenario scenario =
      Check(CloudScenario::Create(config.scenario), "scenario");
  Workload workload = Check(scenario.PaperWorkload(), "workload");

  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  std::vector<ProviderComparisonRow> rows =
      Check(scenario.Dispatch({.kind = AdvisorRequestKind::kCompareProviders,
                               .objective = spec,
                               .inline_workload = &workload}),
            "compare")
          .providers;

  TablePrinter table({"provider", "billing", "instance", "views",
                      "time w/ MV", "cost w/o MV", "cost w/ MV",
                      "blend rate"});
  table.SetTitle("Provider sweep over the 10-query sales workload");
  for (const ProviderComparisonRow& row : rows) {
    table.AddRow(
        {row.provider, ToString(row.granularity), row.instance,
         std::to_string(row.run.selection.evaluation.selected.size()),
         StrFormat("%.2f h", row.run.selection.time.hours()),
         row.run.baseline.cost.total().ToString(),
         row.run.selection.evaluation.cost.total().ToString(),
         FormatPercent(1.0 - row.run.selection.objective_value, 1)});
  }
  table.Print(std::cout);

  std::cout
      << "\nNotes: gigacloud bills by the minute (gentler rounding);\n"
         "bluecloud charges ingress, which Formula 2 picks up but the\n"
         "AWS-style Formula 3 would miss; the intro-example provider has\n"
         "flat rates, so tier position never matters; nimbus exercises\n"
         "the registry-era extensions — per-request I/O charges, a\n"
         "reserved rate the long no-view baseline flips to, and a\n"
         "free tier. Providers registered downstream via\n"
         "CLOUDVIEW_REGISTER_PROVIDER show up here with no change to\n"
         "this example. Materialized views win under every catalog —\n"
         "the paper's headline conclusion is not an artifact of one\n"
         "price sheet.\n";
  return 0;
}
