// CloudScenario: the wired-up deployment facade.

#include "core/scenario.h"

#include <gtest/gtest.h>

#include "pricing/provider_registry.h"
#include "pricing/providers.h"

namespace cloudview {
namespace {

ScenarioConfig SmallScenario() {
  ScenarioConfig config;
  config.sales.logical_size = DataSize::FromGB(10);
  config.mapreduce.job_startup = Duration::FromSeconds(45);
  config.mapreduce.map_throughput_per_unit =
      DataSize::FromBytes(2'100 * 1024);
  config.candidates.max_rows_fraction = 0.05;
  config.single_compute_session = true;
  return config;
}

TEST(CloudScenario, CreateWiresEverything) {
  CloudScenario scenario =
      CloudScenario::Create(SmallScenario()).MoveValue();
  EXPECT_EQ(scenario.lattice().num_nodes(), 16u);
  EXPECT_EQ(scenario.cluster().nodes, 5);
  EXPECT_EQ(scenario.cluster().instance.name, "small");
  EXPECT_EQ(scenario.pricing().name(), "aws-2012");
}

TEST(CloudScenario, SelectsProviderByRegistryName) {
  ScenarioConfig config = SmallScenario();
  config.provider = "gigacloud";
  config.instance_name = "g-small";
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  EXPECT_EQ(scenario.pricing().name(), "gigacloud");
  // The default per-second override is applied on top of the sheet.
  EXPECT_EQ(scenario.pricing().compute_granularity(),
            BillingGranularity::kSecond);
}

TEST(CloudScenario, EmptyOverridesKeepNativeSemantics) {
  ScenarioConfig config = SmallScenario();
  config.provider = "gigacloud";
  config.pricing_overrides = PricingOverrides{};
  config.instance_name = "g-small";
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  EXPECT_EQ(scenario.pricing().compute_granularity(),
            BillingGranularity::kMinute);  // GigaCloud bills by minute.
}

TEST(CloudScenario, CreateRejectsUnknownProvider) {
  ScenarioConfig config = SmallScenario();
  config.provider = "initech-cloud";
  Status status = CloudScenario::Create(config).status();
  EXPECT_TRUE(status.IsNotFound());
  // Discoverability: the error lists registered providers.
  EXPECT_NE(status.message().find("aws-2012"), std::string::npos);
}

TEST(CloudScenario, NameBasedSelectionCoversFormerShimModels) {
  // What the shim used to express — an explicit GigaCloud sheet with
  // native billing semantics — is exactly provider="gigacloud" with
  // the overrides cleared.
  ScenarioConfig config = SmallScenario();
  config.provider = "gigacloud";
  config.instance_name = "g-small";
  config.pricing_overrides = PricingOverrides{};
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  EXPECT_EQ(scenario.pricing().name(), "gigacloud");
  EXPECT_EQ(scenario.pricing().compute_granularity(),
            BillingGranularity::kMinute);  // GigaCloud bills by minute.
}

TEST(CloudScenario, CompareProvidersCoversRegistryInOrder) {
  ScenarioConfig config = SmallScenario();
  config.candidates.max_candidates = 8;
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
  EXPECT_GE(rows.size(), 5u);  // The five builtin sheets.
  for (size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(rows[i].provider);
    EXPECT_EQ(rows[i].provider, names[i]);
    EXPECT_GT(rows[i].run.baseline.cost.total(), Money::Zero());
    // MV3 never lands above the baseline blend.
    EXPECT_LE(rows[i].run.selection.objective_value, 1.0 + 1e-9);
  }

  // The configured instance survives where the catalog has it and is
  // re-picked by compute power where it does not.
  auto row_of = [&](const std::string& name) {
    for (const ProviderComparisonRow& row : rows) {
      if (row.provider == name) return row;
    }
    ADD_FAILURE() << "missing provider " << name;
    return rows.front();
  };
  EXPECT_EQ(row_of("aws-2012").instance, "small");
  EXPECT_EQ(row_of("gigacloud").instance, "g-small");
  EXPECT_EQ(row_of("nimbus").instance, "n1");

  // A provider comparison runs each sheet natively: the aws row bills by the
  // started hour even though this scenario runs per-second.
  EXPECT_EQ(row_of("aws-2012").granularity, BillingGranularity::kHour);
  // The nimbus sheet's per-request charges reach its row's breakdown.
  EXPECT_GT(row_of("nimbus").run.baseline.cost.requests, Money::Zero());
}

TEST(CloudScenario, CreateRejectsUnknownInstance) {
  ScenarioConfig config = SmallScenario();
  config.instance_name = "quantum";
  EXPECT_TRUE(CloudScenario::Create(config).status().IsNotFound());
}

TEST(CloudScenario, CreateRejectsNonPositiveNodes) {
  ScenarioConfig config = SmallScenario();
  config.nb_instances = 0;
  EXPECT_TRUE(
      CloudScenario::Create(config).status().IsInvalidArgument());
}

TEST(CloudScenario, MoveKeepsInternalReferencesValid) {
  // CloudScenario is heap-backed; moving it must not dangle the
  // simulator -> lattice or cost-model -> pricing references.
  CloudScenario a = CloudScenario::Create(SmallScenario()).MoveValue();
  CloudScenario b = std::move(a);
  Workload workload = b.PaperWorkload().MoveValue().Prefix(3);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  EXPECT_TRUE(b.Dispatch({.kind = AdvisorRequestKind::kSolve,
                          .objective = spec,
                          .inline_workload = &workload})
                  .ok());
}

TEST(CloudScenario, RunProducesConsistentBaseline) {
  CloudScenario scenario =
      CloudScenario::Create(SmallScenario()).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue().Prefix(3);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = Money::FromCents(80);
  SolveRun run = scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                                    .objective = spec,
                                    .inline_workload = &workload})
                     .MoveValue()
                     .solve;

  EXPECT_TRUE(run.baseline.selected.empty());
  EXPECT_GT(run.baseline.processing_time, Duration::Zero());
  EXPECT_GT(run.baseline.cost.total(), Money::Zero());
  // Views always help here (paper's headline conclusion).
  EXPECT_GT(run.TimeImprovement(spec), 0.0);
  EXPECT_LE(run.selection.evaluation.cost.total(), spec.budget_limit);
}

TEST(CloudScenario, ClusterOverrideChangesTiming) {
  CloudScenario scenario =
      CloudScenario::Create(SmallScenario()).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue().Prefix(3);
  ClusterSpec large{
      scenario.pricing().instances().Find("large").value(), 5};
  SubsetEvaluation small_eval =
      scenario.EvaluateWithoutViews(workload, scenario.cluster())
          .MoveValue();
  SubsetEvaluation large_eval =
      scenario.EvaluateWithoutViews(workload, large).MoveValue();
  EXPECT_LT(large_eval.processing_time, small_eval.processing_time);
  EXPECT_GT(large_eval.cost.processing, small_eval.cost.processing);
}

TEST(CloudScenario, CheapestClusterMeetingPicksMinimalTier) {
  CloudScenario scenario =
      CloudScenario::Create(SmallScenario()).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue().Prefix(3);
  SubsetEvaluation base =
      scenario.EvaluateWithoutViews(workload, scenario.cluster())
          .MoveValue();

  // A generous limit is met by the cheapest tier that can do it.
  auto generous = scenario.CheapestClusterMeeting(
      workload, base.processing_time * 4);
  ASSERT_TRUE(generous.ok());
  EXPECT_EQ(generous->instance.name, "micro");

  // A tight limit forces scale-up.
  auto tight = scenario.CheapestClusterMeeting(
      workload, Duration::FromHoursRounded(0.57));
  ASSERT_TRUE(tight.ok());
  EXPECT_EQ(tight->instance.name, "large");

  // An impossible limit has no tier.
  EXPECT_TRUE(scenario
                  .CheapestClusterMeeting(workload,
                                          Duration::FromSeconds(1))
                  .status()
                  .IsNotFound());
}

TEST(CloudScenario, ProratedStorageScalesWithWorkload) {
  CloudScenario scenario =
      CloudScenario::Create(SmallScenario()).MoveValue();
  Workload full = scenario.PaperWorkload().MoveValue();
  DeploymentSpec three =
      scenario.MakeDeployment(full.Prefix(3), scenario.cluster())
          .MoveValue();
  DeploymentSpec ten =
      scenario.MakeDeployment(full, scenario.cluster()).MoveValue();
  EXPECT_LT(three.storage_period, ten.storage_period);
  EXPECT_GE(three.storage_period, Months::FromMilli(1));
}

TEST(CloudScenario, FixedStoragePeriodHonoured) {
  ScenarioConfig config = SmallScenario();
  config.prorate_storage = false;
  config.storage_period = Months::FromMonths(3);
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue().Prefix(3);
  DeploymentSpec deployment =
      scenario.MakeDeployment(workload, scenario.cluster()).MoveValue();
  EXPECT_EQ(deployment.storage_period, Months::FromMonths(3));
}

TEST(CloudScenario, RunRejectsEmptyWorkload) {
  CloudScenario scenario =
      CloudScenario::Create(SmallScenario()).MoveValue();
  const Workload empty;
  EXPECT_TRUE(scenario
                  .Dispatch({.kind = AdvisorRequestKind::kSolve,
                             .inline_workload = &empty})
                  .status()
                  .IsInvalidArgument());
}

TEST(SolveRun, ImprovementAccessors) {
  CloudScenario scenario =
      CloudScenario::Create(SmallScenario()).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue().Prefix(5);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  SolveRun run = scenario.Dispatch({.kind = AdvisorRequestKind::kSolve,
                                    .objective = spec,
                                    .inline_workload = &workload})
                     .MoveValue()
                     .solve;
  double ti = run.TimeImprovement(spec);
  double ci = run.CostImprovement();
  EXPECT_GE(ti, 0.0);
  EXPECT_LE(ti, 1.0);
  EXPECT_LE(ci, 1.0);
  // MV3 never picks something worse than baseline on the blend.
  EXPECT_GE(spec.alpha * ti + (1 - spec.alpha) * ci, -1e-9);
}

}  // namespace
}  // namespace cloudview
