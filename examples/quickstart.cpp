// Quickstart: price the paper's running example with the cost models.
//
// Reproduces Section 2-4's worked numbers: a 500 GB dataset in the cloud
// for a year, a workload that runs in 50 h without views and 40 h with a
// 50 GB view set, on two small EC2-2012 instances — then asks the
// selector a real question: is the view set worth it?
//
//   $ ./build/examples/example_quickstart

#include <iostream>

#include "core/cost/cloud_cost_model.h"
#include "pricing/billing.h"
#include "pricing/providers.h"

using namespace cloudview;

int main() {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  CloudCostModel model(aws);

  // The deployment of the running example.
  DeploymentSpec spec;
  spec.instance = aws.instances().Find("small").value();
  spec.nb_instances = 2;
  spec.storage_period = Months::FromMonths(12);
  spec.base_storage = StorageTimeline(DataSize::FromGB(500));
  spec.maintenance_cycles = 1;

  // The workload Q: 50 h without views, 40 h with, 10 GB of results.
  WorkloadCostInput without_views;
  without_views.queries.push_back({"Q (sales analytics)",
                                   Duration::FromHours(50),
                                   DataSize::FromGB(10),
                                   DataSize::Zero(), 1});
  WorkloadCostInput with_views = without_views;
  with_views.queries[0].processing_time = Duration::FromHours(40);

  // The selected view set V: 50 GB, 1 h to build, 5 h to maintain.
  ViewSetCostInput views;
  views.views.push_back({"V (sales per month and country, ...)",
                         Duration::FromHours(1), Duration::FromHours(5),
                         DataSize::FromGB(50)});

  CostBreakdown plain = model.CostWithoutViews(without_views, spec).value();
  CostBreakdown viewed = model.CostWithViews(with_views, views, spec).value();

  std::cout << "Running example (paper sections 2-4), one year on "
            << aws.name() << ":\n\n";
  std::cout << "  without views: ";
  plain.Print(std::cout);
  std::cout << "\n  with views:    ";
  viewed.Print(std::cout);
  std::cout << "\n\n";

  double time_gain = 1.0 - 40.0 / 50.0;
  double cost_delta =
      (static_cast<double>(viewed.total().micros()) /
       static_cast<double>(plain.total().micros())) - 1.0;
  std::cout << "  query time improves by " << time_gain * 100 << "%, "
            << "the bill moves by " << cost_delta * 100 << "%\n\n";

  // The same story, on an itemized invoice.
  BillingMeter meter(aws);
  meter.RecordStorage("dataset", DataSize::FromGB(500),
                      Months::FromMonths(12));
  meter.RecordStorage("materialized views", DataSize::FromGB(50),
                      Months::FromMonths(12));
  meter.RecordCompute("workload Q (with views)", spec.instance,
                      Duration::FromHours(40), 2);
  meter.RecordCompute("materializing V", spec.instance,
                      Duration::FromHours(1), 2);
  meter.RecordCompute("maintaining V", spec.instance,
                      Duration::FromHours(5), 2);
  meter.RecordTransferOut("query results", DataSize::FromGB(10));

  std::cout << "Invoice (with views):\n";
  meter.invoice().Print(std::cout);
  return 0;
}
