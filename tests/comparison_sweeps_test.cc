// Thread-count independence of the parallel comparison sweeps: a
// compare-providers request returns bit-identical rows (selections and
// full CostBreakdowns) at CLOUDVIEW_THREADS=1 and =8, in sorted
// provider order.

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"
#include "core/scenario.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

/// Restores the global pool size on scope exit, so a failing assertion
/// cannot leak an 8-thread pool into the other tests.
class ScopedConcurrency {
 public:
  explicit ScopedConcurrency(size_t n)
      : original_(ThreadPool::Global().concurrency()) {
    ThreadPool::SetGlobalConcurrency(n);
  }
  ~ScopedConcurrency() { ThreadPool::SetGlobalConcurrency(original_); }

 private:
  size_t original_;
};

ObjectiveSpec Mv3() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  return spec;
}

void ExpectIdentical(const SelectionResult& a, const SelectionResult& b) {
  EXPECT_EQ(a.evaluation.selected, b.evaluation.selected);
  EXPECT_EQ(a.time.millis(), b.time.millis());
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.objective_value, b.objective_value);
  // The full CostBreakdown, term by term, to the micro-dollar.
  EXPECT_EQ(a.evaluation.cost.processing.micros(),
            b.evaluation.cost.processing.micros());
  EXPECT_EQ(a.evaluation.cost.materialization.micros(),
            b.evaluation.cost.materialization.micros());
  EXPECT_EQ(a.evaluation.cost.maintenance.micros(),
            b.evaluation.cost.maintenance.micros());
  EXPECT_EQ(a.evaluation.cost.storage.micros(),
            b.evaluation.cost.storage.micros());
  EXPECT_EQ(a.evaluation.cost.transfer.micros(),
            b.evaluation.cost.transfer.micros());
  EXPECT_EQ(a.evaluation.cost.requests.micros(),
            b.evaluation.cost.requests.micros());
  EXPECT_EQ(a.evaluation.cost.total().micros(),
            b.evaluation.cost.total().micros());
}

TEST(ComparisonSweeps, ProviderRowsIndependentOfThreadCount) {
  ScenarioConfig config;
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  Workload workload = scenario.PaperWorkload().value();
  ObjectiveSpec spec = Mv3();
  const AdvisorRequest request{
      .kind = AdvisorRequestKind::kCompareProviders,
      .solver = "greedy",
      .objective = spec,
      .inline_workload = &workload};

  std::vector<ProviderComparisonRow> serial;
  {
    ScopedConcurrency one(1);
    serial = scenario.Dispatch(request).value().providers;
  }
  std::vector<ProviderComparisonRow> parallel;
  {
    ScopedConcurrency eight(8);
    parallel = scenario.Dispatch(request).value().providers;
  }
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_GE(serial.size(), 4u);  // The built-in sheets, at least.
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].provider, parallel[i].provider);
    EXPECT_EQ(serial[i].instance, parallel[i].instance);
    ExpectIdentical(serial[i].run.selection, parallel[i].run.selection);
  }
  // Sorted provider order, not completion order.
  for (size_t i = 1; i < parallel.size(); ++i) {
    EXPECT_LT(parallel[i - 1].provider, parallel[i].provider);
  }
}

}  // namespace
}  // namespace cloudview
