// Deployment-architecture layer (catalog/architecture.h, DESIGN.md
// §15): spec validation, price-sheet lowering into exact rational
// multipliers, the identity contract (default model reproduces the
// legacy bill bit-for-bit), the "arch-sweep" joint solver and its
// SolveJoint facade, and the solve-joint wire form.

#include "catalog/architecture.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/solver.h"
#include "core/scenario.h"
#include "engine/sales_generator.h"
#include "pricing/provider_registry.h"
#include "pricing/providers.h"
#include "serving/advisor_codec.h"
#include "workload/generator.h"

namespace cloudview {
namespace {

// --- Spec validation --------------------------------------------------------

TEST(ArchitectureSpec, ValidateRejectsStructuralErrors) {
  EXPECT_TRUE(ArchitectureSpec{}.Validate().IsInvalidArgument());

  ArchitectureSpec nameless_group{.name = "a", .groups = {{.name = ""}}};
  EXPECT_TRUE(nameless_group.Validate().IsInvalidArgument());

  ArchitectureSpec zero_replicas{
      .name = "a", .groups = {{.name = "g", .replicas = 0}}};
  EXPECT_TRUE(zero_replicas.Validate().IsInvalidArgument());

  ArchitectureSpec replica_flood{
      .name = "a", .groups = {{.name = "g", .replicas = 2000}}};
  EXPECT_TRUE(replica_flood.Validate().IsInvalidArgument());

  ArchitectureSpec more_zones_than_replicas{
      .name = "a", .groups = {{.name = "g", .replicas = 2, .zones = 3}}};
  EXPECT_TRUE(more_zones_than_replicas.Validate().IsInvalidArgument());

  ArchitectureSpec ok{.name = "a",
                      .groups = {{.name = "g", .replicas = 3, .zones = 2}}};
  EXPECT_TRUE(ok.Validate().ok());
  // Empty groups mean one default on-demand replica — valid.
  EXPECT_TRUE(ArchitectureSpec{.name = "bare"}.Validate().ok());
}

TEST(ArchitectureSpec, DefaultRosterIsValidAndStable) {
  std::vector<ArchitectureSpec> roster = DefaultArchitectureRoster();
  ASSERT_EQ(roster.size(), 5u);
  EXPECT_EQ(roster[0].name, "single-az-on-demand");
  EXPECT_EQ(roster[1].name, "2az-replicated");
  EXPECT_EQ(roster[2].name, "spot-single-az");
  EXPECT_EQ(roster[3].name, "spot-2az");
  EXPECT_EQ(roster[4].name, "3az-ha");
  for (const ArchitectureSpec& spec : roster) {
    EXPECT_TRUE(spec.Validate().ok()) << spec.name;
  }
}

// --- Lowering ---------------------------------------------------------------

struct Priced {
  PricingModel pricing;
  InstanceType instance;
};

Priced PricedInstance(const std::string& sheet,
                      const std::string& instance) {
  PricingModel model =
      ProviderRegistry::Global().Model(sheet).MoveValue();
  InstanceType type = model.instances().Find(instance).value();
  return Priced{std::move(model), std::move(type)};
}

TEST(ArchitectureLower, DefaultSpecLowersToIdentity) {
  Priced aws = PricedInstance("aws-2012", "small");
  ArchitectureModel model = ArchitectureSpec{.name = "solo"}
                                .Lower(aws.pricing, aws.instance)
                                .MoveValue();
  EXPECT_EQ(model.name, "solo");
  EXPECT_TRUE(model.is_identity());
  // One three-nines node plus one AZ's correlated-outage odds.
  EXPECT_EQ(model.unavailability_ppm,
            ArchitectureModel::kSingleNodeUnavailabilityPpm + 500);
}

TEST(ArchitectureLower, SpotLowersToExactRationals) {
  Priced aws = PricedInstance("aws-2012", "small");
  ArchitectureModel model =
      DefaultArchitectureRoster()[2]  // spot-single-az
          .Lower(aws.pricing, aws.instance)
          .MoveValue();
  EXPECT_FALSE(model.is_identity());
  // aws-2012 small: $0.12/h on-demand, $0.037/h spot.
  const int64_t spot = aws.instance.spot_price_per_hour.micros();
  const int64_t on_demand = aws.instance.price_per_hour.micros();
  EXPECT_EQ(model.compute_num, spot);
  EXPECT_EQ(model.compute_den, on_demand);
  EXPECT_EQ(model.fanout_num, spot);
  EXPECT_EQ(model.fanout_den, on_demand);
  EXPECT_EQ(model.storage_num, 1);
  EXPECT_EQ(model.cross_az_copies, 0);
  // Expected re-runs: ppm/(1e6 - ppm), all of the fleet being spot.
  const int64_t ppm = aws.pricing.spot_interruption_ppm();
  EXPECT_EQ(model.interruption_num, ppm * spot);
  EXPECT_EQ(model.interruption_den, (1'000'000 - ppm) * spot);
  // Node unavailability grows by the interruption odds.
  EXPECT_EQ(model.unavailability_ppm,
            ArchitectureModel::kSingleNodeUnavailabilityPpm + ppm + 500);
}

TEST(ArchitectureLower, ReplicationTradesCostForAvailability) {
  Priced aws = PricedInstance("aws-2012", "small");
  ArchitectureModel model =
      DefaultArchitectureRoster()[1]  // 2az-replicated, zonal
          .Lower(aws.pricing, aws.instance)
          .MoveValue();
  // Processing load-balances (blended rate == on-demand), builds fan
  // out to both replicas, storage keeps 2 working + 1 zonal copy.
  EXPECT_EQ(model.compute_num, model.compute_den);
  EXPECT_EQ(model.fanout_num, 2 * aws.instance.price_per_hour.micros());
  EXPECT_EQ(model.fanout_den, aws.instance.price_per_hour.micros());
  EXPECT_EQ(model.storage_num, 3);
  EXPECT_EQ(model.storage_den, 1);
  EXPECT_EQ(model.cross_az_copies, 1);
  EXPECT_EQ(model.interruption_num, 0);
  // Two independent nodes in two zones: both coincident terms floor
  // at 1 ppm.
  EXPECT_EQ(model.unavailability_ppm, 2);
  EXPECT_LT(model.unavailability_ppm,
            ArchitectureModel::kSingleNodeUnavailabilityPpm);
}

TEST(ArchitectureLower, PlanAvailabilityIsCheckedAgainstTheSheet) {
  // Only nimbus publishes reserved rates; 3az-ha must lower there and
  // fail everywhere else, naming sheet and instance.
  ArchitectureSpec ha = DefaultArchitectureRoster()[4];
  Priced aws = PricedInstance("aws-2012", "small");
  Status missing = ha.Lower(aws.pricing, aws.instance).status();
  ASSERT_TRUE(missing.IsInvalidArgument());
  EXPECT_NE(missing.message().find("aws-2012"), std::string::npos);
  EXPECT_NE(missing.message().find("reserved"), std::string::npos);

  Priced nimbus = PricedInstance("nimbus", "n1");
  EXPECT_TRUE(ha.Lower(nimbus.pricing, nimbus.instance).ok());
}

// --- Evaluator + joint solve ------------------------------------------------

struct Fixture {
  Fixture() {
    lattice = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(SalesConfig{}).value())
            .MoveValue());
    MapReduceParams params;
    params.job_startup = Duration::FromSeconds(45);
    params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
    simulator = std::make_unique<MapReduceSimulator>(*lattice, params);
    pricing = std::make_unique<PricingModel>(
        ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
            BillingGranularity::kSecond));
    cost_model = std::make_unique<CloudCostModel>(*pricing);
    cluster = ClusterSpec{pricing->instances().Find("small").value(), 5};
    deployment.instance = cluster.instance;
    deployment.nb_instances = cluster.nodes;
    deployment.storage_period = Months::FromMilli(4);
    deployment.base_storage = StorageTimeline(lattice->fact_scan_size());
    deployment.ingress.initial_dataset = lattice->fact_scan_size();
    deployment.maintenance_cycles = 2;

    Workload workload = MakePaperWorkload(*lattice).MoveValue().Prefix(8);
    CandidateGenOptions options;
    options.max_candidates = 10;
    options.max_rows_fraction = 0.05;
    auto candidates = GenerateCandidates(*lattice, workload, *simulator,
                                         cluster, options)
                          .MoveValue();
    evaluator = std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(*lattice, workload, *simulator,
                                   cluster, *cost_model, deployment,
                                   std::move(candidates))
            .MoveValue());
  }

  ArchitectureModel Lowered(size_t roster_index) const {
    return DefaultArchitectureRoster()[roster_index]
        .Lower(*pricing, cluster.instance)
        .MoveValue();
  }

  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
  DeploymentSpec deployment;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

TEST(ArchitectureEvaluator, IdentityCloneIsBitIdentical) {
  Fixture fixture;
  SelectionEvaluator clone =
      fixture.evaluator->CloneWithArchitecture(ArchitectureModel{})
          .MoveValue();
  for (const std::vector<size_t>& selected :
       {std::vector<size_t>{}, std::vector<size_t>{0},
        std::vector<size_t>{0, 2, 3}}) {
    SubsetEvaluation base =
        fixture.evaluator->Evaluate(selected).MoveValue();
    SubsetEvaluation under = clone.Evaluate(selected).MoveValue();
    EXPECT_EQ(base.cost.total(), under.cost.total());
    EXPECT_EQ(base.cost.processing, under.cost.processing);
    EXPECT_EQ(base.cost.storage, under.cost.storage);
    EXPECT_TRUE(under.cost.interruption.is_zero());
    EXPECT_TRUE(under.cost.inter_az.is_zero());
  }
}

TEST(ArchitectureEvaluator, SpotCloneScalesTheExactBill) {
  Fixture fixture;
  ArchitectureModel spot = fixture.Lowered(2);
  SelectionEvaluator clone =
      fixture.evaluator->CloneWithArchitecture(spot).MoveValue();
  SubsetEvaluation base =
      fixture.evaluator->Evaluate({0, 1, 2}).MoveValue();
  SubsetEvaluation under = clone.Evaluate({0, 1, 2}).MoveValue();
  // Every compute component rides the published rational exactly.
  EXPECT_EQ(under.cost.processing,
            base.cost.processing.ScaleBy(spot.compute_num,
                                         spot.compute_den));
  EXPECT_EQ(under.cost.materialization,
            base.cost.materialization.ScaleBy(spot.fanout_num,
                                              spot.fanout_den));
  EXPECT_EQ(under.cost.maintenance,
            base.cost.maintenance.ScaleBy(spot.fanout_num,
                                          spot.fanout_den));
  EXPECT_EQ(under.cost.interruption,
            (under.cost.materialization + under.cost.maintenance)
                .ScaleBy(spot.interruption_num, spot.interruption_den));
  EXPECT_GT(under.cost.interruption, Money());
  // The ~0.31x spot rate undercuts on-demand on the total bill.
  EXPECT_LT(under.cost.total(), base.cost.total());
  // The clone's baseline was re-billed under the new architecture.
  EXPECT_EQ(clone.baseline().cost.processing,
            fixture.evaluator->baseline().cost.processing.ScaleBy(
                spot.compute_num, spot.compute_den));
}

TEST(ArchitectureEvaluator, SingleSessionConflictIsRejected) {
  Fixture fixture;
  DeploymentSpec single = fixture.deployment;
  single.single_compute_session = true;
  SelectionEvaluator evaluator =
      SelectionEvaluator::Create(*fixture.lattice,
                                 MakePaperWorkload(*fixture.lattice)
                                     .MoveValue()
                                     .Prefix(8),
                                 *fixture.simulator, fixture.cluster,
                                 *fixture.cost_model, single, {})
          .MoveValue();
  Status conflict =
      evaluator.CloneWithArchitecture(fixture.Lowered(2)).status();
  EXPECT_TRUE(conflict.IsInvalidArgument());
  // The identity clone stays legal under a single session.
  EXPECT_TRUE(
      evaluator.CloneWithArchitecture(ArchitectureModel{}).ok());
}

TEST(ArchSweep, WinnerAndFrontierCarryArchitectures) {
  Fixture fixture;
  ViewSelector selector(*fixture.evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;

  const Solver* sweep =
      SolverRegistry::Global().Find("arch-sweep").value();
  EXPECT_TRUE(sweep->multi_objective());

  SelectionResult identity =
      selector.Solve(spec, kDefaultSolverName).MoveValue();
  SelectionResult joint = selector.Solve(spec, "arch-sweep").MoveValue();
  EXPECT_FALSE(joint.architecture.empty());
  ASSERT_FALSE(joint.frontier.empty());
  // aws-2012 publishes a ~0.31x spot rate, so some non-identity fleet
  // strictly undercuts the single-node on-demand optimum.
  EXPECT_LT(joint.multi.monthly_cost, identity.multi.monthly_cost);
  for (const ParetoPoint& point : joint.frontier) {
    EXPECT_FALSE(point.architecture.empty());
    for (const ParetoPoint& other : joint.frontier) {
      EXPECT_FALSE(other.score.Dominates(point.score));
    }
  }
  // The fourth axis keeps the reliable on-demand point alive next to
  // the cheap spot one: at least two distinct architectures survive.
  bool has_identity = false;
  bool has_spot = false;
  for (const ParetoPoint& point : joint.frontier) {
    has_identity |= point.architecture == "single-az-on-demand";
    has_spot |= point.architecture.find("spot") != std::string::npos;
  }
  EXPECT_TRUE(has_identity);
  EXPECT_TRUE(has_spot);
}

TEST(ArchSweep, RejectsBadConfigurations) {
  Fixture fixture;
  ViewSelector selector(*fixture.evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;

  // A multi-objective inner solver would recurse.
  spec.architecture_inner_solver = "pareto-sweep";
  EXPECT_TRUE(selector.Solve(spec, "arch-sweep")
                  .status()
                  .IsInvalidArgument());
  spec.architecture_inner_solver.clear();

  // A non-identity base deployment would double-apply architectures.
  SelectionEvaluator spot_base =
      fixture.evaluator->CloneWithArchitecture(fixture.Lowered(2))
          .MoveValue();
  ViewSelector spot_selector(spot_base);
  EXPECT_TRUE(spot_selector.Solve(spec, "arch-sweep")
                  .status()
                  .IsInvalidArgument());
}

TEST(ArchSweep, ScenarioSolveJointRequest) {
  ScenarioConfig config;
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;

  JointRun run = scenario.Dispatch({.kind = AdvisorRequestKind::kSolveJoint,
                                    .objective = spec,
                                    .inline_workload = &workload})
                     .MoveValue()
                     .joint;
  ASSERT_FALSE(run.frontier.empty());
  EXPECT_EQ(run.best_architecture, run.best.architecture);
  EXPECT_FALSE(run.best_architecture.empty());
  // JointRun::frontier owns the points; the embedded result's copy is
  // cleared rather than duplicated (mirrors FrontierRun).
  EXPECT_TRUE(run.best.frontier.empty());
  // The baseline is the identity no-view bill, for cost-delta reports.
  EXPECT_TRUE(run.baseline.selected.empty());
}

// --- Wire form --------------------------------------------------------------

TEST(ArchitectureCodec, SolveJointRequestRoundTrips) {
  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kSolveJoint;
  request.objective.scenario = Scenario::kMV3Tradeoff;
  request.objective.alpha = 0.5;
  request.objective.architectures = {
      ArchitectureSpec{.name = "solo"},
      ArchitectureSpec{.name = "spot-pair",
                       .groups = {{.name = "primary",
                                   .replicas = 2,
                                   .zones = 2,
                                   .plan = PurchasePlan::kSpot}},
                       .durability = DurabilityTier::kZonal}};
  request.objective.architecture_inner_solver = "greedy";
  request.workload.kind = "queries";
  request.workload.queries = {QuerySpec{"q1", 3, 40}};

  const std::string text = WriteJson(AdvisorRequestToJson(request));
  AdvisorRequest parsed = ParseAdvisorRequestText(text).MoveValue();
  EXPECT_EQ(WriteJson(AdvisorRequestToJson(parsed)), text);
  EXPECT_EQ(parsed.kind, AdvisorRequestKind::kSolveJoint);
  EXPECT_EQ(parsed.objective.architecture_inner_solver, "greedy");
  ASSERT_EQ(parsed.objective.architectures.size(), 2u);
  EXPECT_EQ(parsed.objective.architectures[0].name, "solo");
  const ArchitectureSpec& pair = parsed.objective.architectures[1];
  EXPECT_EQ(pair.durability, DurabilityTier::kZonal);
  ASSERT_EQ(pair.groups.size(), 1u);
  EXPECT_EQ(pair.groups[0].replicas, 2);
  EXPECT_EQ(pair.groups[0].plan, PurchasePlan::kSpot);
}

TEST(ArchitectureCodec, BadArchitectureFieldsAreNamed) {
  Result<AdvisorRequest> bad_plan = ParseAdvisorRequestText(
      R"({"kind":"solve-joint","objective":{"architectures":[)"
      R"({"name":"a","groups":[{"name":"g","plan":"preemptible"}]}]}})");
  ASSERT_FALSE(bad_plan.ok());
  EXPECT_TRUE(bad_plan.status().IsInvalidArgument());
  EXPECT_NE(bad_plan.status().message().find("plan"), std::string::npos);

  Result<AdvisorRequest> bad_key = ParseAdvisorRequestText(
      R"({"kind":"solve-joint","objective":{"architectures":[)"
      R"({"name":"a","zone_count":3}]}})");
  ASSERT_FALSE(bad_key.ok());
  EXPECT_TRUE(bad_key.status().IsInvalidArgument());
  EXPECT_NE(bad_key.status().message().find("zone_count"),
            std::string::npos);
}

}  // namespace
}  // namespace cloudview
