// ProviderRegistry: the provider seam stays open — a fifth-party CSP
// registered through the *public* CLOUDVIEW_REGISTER_PROVIDER macro
// (from this test, no library sources touched) is selectable by name
// through ScenarioConfig and shows up in CompareProviders sweeps.

#include "pricing/provider_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/scenario.h"
#include "pricing/providers.h"

namespace cloudview {
namespace {

// A downstream CSP exercising every extension dimension at once:
// reserved rates, per-request charges, and a free tier.
PriceSheetSpec TestCspSpec() {
  PriceSheetSpec spec;
  spec.name = "test-csp";
  spec.description = "registered from test code via the public macro";
  spec.instances = {
      {.name = "t-small",
       .price_per_hour = Money::FromCents(9),
       .compute_units = 1.0,
       .ram = DataSize::FromGB(2),
       .reserved = ReservedRateSpec{.upfront = Money::FromCents(5),
                                    .price_per_hour = Money::FromCents(3)}},
      {.name = "t-large",
       .price_per_hour = Money::FromCents(36),
       .compute_units = 4.0,
       .ram = DataSize::FromGB(8)},
  };
  spec.storage_per_gb_month = {{DataSize::Zero(), Money::FromCents(9)}};
  spec.transfer_out_per_gb = {{DataSize::Zero(), Money::FromMicros(90'000)}};
  spec.compute_granularity = BillingGranularity::kSecond;
  spec.storage_billing = StorageBilling::kMarginalTiers;
  spec.requests = RequestCharge{.price_per_10k = Money::FromCents(25),
                                .requests_per_query = 100};
  spec.free_tier = FreeTier{.transfer_out = DataSize::FromGB(1),
                                   .requests = 100};
  return spec;
}

}  // namespace
}  // namespace cloudview

// File scope, outside any namespace — exactly how a downstream user
// would register a CSP in their own translation unit.
CLOUDVIEW_REGISTER_PROVIDER(test_csp, cloudview::TestCspSpec())

namespace cloudview {
namespace {

TEST(ProviderRegistry, BuiltinsAreRegistered) {
  const ProviderRegistry& registry = ProviderRegistry::Global();
  for (const char* name : {"aws-2012", "intro-example", "gigacloud",
                           "bluecloud", "nimbus"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    const PriceSheetSpec* spec = registry.FindSpec(name).value();
    EXPECT_EQ(spec->name, name);
    EXPECT_FALSE(spec->description.empty()) << name;
    PricingModel model = registry.Model(name).MoveValue();
    EXPECT_EQ(model.name(), name);
    EXPECT_FALSE(model.instances().empty()) << name;
  }
}

TEST(ProviderRegistry, NamesAreSortedAndUnique) {
  std::vector<std::string> names = ProviderRegistry::Global().Names();
  EXPECT_GE(names.size(), 6u);  // Five builtins + test-csp.
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ProviderRegistry, FindUnknownIsNotFoundAndListsKnown) {
  auto result = ProviderRegistry::Global().FindSpec("no-such-csp");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_NE(result.status().message().find("aws-2012"),
            std::string::npos);
}

TEST(ProviderRegistry, DuplicateRegistrationRejected) {
  EXPECT_TRUE(ProviderRegistry::Global()
                  .Register(TestCspSpec())
                  .IsAlreadyExists());
}

TEST(ProviderRegistry, InvalidSpecRejectedWithSheetName) {
  PriceSheetSpec bad = TestCspSpec();
  bad.name = "bad-csp";
  bad.instances[0].price_per_hour = Money::FromCents(-1);
  Status status = ProviderRegistry::Global().Register(bad);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("bad-csp"), std::string::npos);
  EXPECT_FALSE(ProviderRegistry::Global().Contains("bad-csp"));
}

TEST(ProviderRegistry, NonMonotonicTiersRejected) {
  PriceSheetSpec bad = TestCspSpec();
  bad.name = "bad-tiers";
  bad.storage_per_gb_month = {
      {DataSize::FromGB(10), Money::FromCents(10)},
      {DataSize::FromGB(5), Money::FromCents(8)},
      {DataSize::Zero(), Money::FromCents(6)},
  };
  Status status = bad.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("storage"), std::string::npos);
}

TEST(ProviderRegistry, ReservedRateMustUndercutOnDemand) {
  PriceSheetSpec bad = TestCspSpec();
  bad.name = "bad-reserved";
  bad.instances[0].reserved =
      ReservedRateSpec{.upfront = Money::FromCents(1),
                       .price_per_hour = Money::FromCents(9)};
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

TEST(ProviderRegistry, MacroRegisteredProviderIsInAllProviders) {
  std::vector<PricingModel> all = AllProviders();
  EXPECT_TRUE(std::any_of(
      all.begin(), all.end(),
      [](const PricingModel& m) { return m.name() == "test-csp"; }));
}

// The macro-registered CSP drives a full scenario by name: the open
// seam, end to end.
TEST(ProviderRegistry, MacroRegisteredProviderRunsScenario) {
  ScenarioConfig config;
  config.provider = "test-csp";
  config.pricing_overrides = PricingOverrides{};
  config.instance_name = "t-small";
  config.sales.logical_size = DataSize::FromGB(10);
  config.mapreduce.job_startup = Duration::FromSeconds(45);
  config.mapreduce.map_throughput_per_unit =
      DataSize::FromBytes(2'100 * 1024);
  config.candidates.max_rows_fraction = 0.05;
  config.single_compute_session = true;

  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  EXPECT_EQ(scenario.pricing().name(), "test-csp");
  EXPECT_EQ(scenario.pricing().compute_granularity(),
            BillingGranularity::kSecond);
  EXPECT_TRUE(scenario.pricing().request_charge().is_billed());

  Workload workload = scenario.PaperWorkload().MoveValue().Prefix(5);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  SolveRun run = scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                                    .objective = spec,
                                    .inline_workload = &workload})
                     .MoveValue()
                     .solve;
  EXPECT_GT(run.baseline.cost.total(), Money::Zero());
  // The per-request term reaches the breakdown: 5 queries x 100
  // requests/query, 100 free, $0.25/10k -> $0.01.
  EXPECT_EQ(run.baseline.cost.requests, Money::FromCents(1));
  EXPECT_EQ(run.selection.evaluation.cost.requests, Money::FromCents(1));

  // The baseline session is long enough for t-small's reserved plan to
  // beat on-demand ($0.05 + $0.03/h vs $0.09/h past 50 min), so the
  // single-session reconciliation term carries the discount (negative;
  // see cost_breakdown.h) and compute() stays the billed truth.
  const CostBreakdown& cost = run.baseline.cost;
  EXPECT_LT(cost.session_rounding, Money::Zero());
  InstanceType t_small =
      scenario.pricing().instances().Find("t-small").value();
  Money billed = scenario.pricing().ComputeCost(
      t_small, run.baseline.processing_time, config.nb_instances);
  EXPECT_EQ(cost.compute(), billed);
}

TEST(ProviderRegistry, CompareProvidersIncludesDownstreamCsp) {
  ScenarioConfig config;
  config.sales.logical_size = DataSize::FromGB(10);
  config.mapreduce.job_startup = Duration::FromSeconds(45);
  config.mapreduce.map_throughput_per_unit =
      DataSize::FromBytes(2'100 * 1024);
  config.candidates.max_rows_fraction = 0.05;
  config.candidates.max_candidates = 8;
  config.single_compute_session = true;

  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue().Prefix(3);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  std::vector<ProviderComparisonRow> rows =
      scenario
          .Dispatch({.kind = AdvisorRequestKind::kCompareProviders,
                     .objective = spec,
                     .inline_workload = &workload})
          .MoveValue()
          .providers;

  std::vector<std::string> names = ProviderRegistry::Global().Names();
  ASSERT_EQ(rows.size(), names.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].provider, names[i]);  // Sorted order.
    EXPECT_FALSE(rows[i].instance.empty());
    EXPECT_GT(rows[i].run.baseline.cost.total(), Money::Zero());
  }
  auto test_row = std::find_if(
      rows.begin(), rows.end(),
      [](const ProviderComparisonRow& r) { return r.provider == "test-csp"; });
  ASSERT_NE(test_row, rows.end());
  EXPECT_EQ(test_row->instance, "t-small");
  EXPECT_GT(test_row->run.baseline.cost.requests, Money::Zero());
}

}  // namespace
}  // namespace cloudview
