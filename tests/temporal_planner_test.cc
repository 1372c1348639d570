// TemporalPlanner: policy semantics, ledger coherence, and the headline
// result — re-selecting under drift beats a static selection on total
// multi-period cost.

#include "core/optimizer/temporal_planner.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/scenario.h"
#include "engine/sales_generator.h"
#include "pricing/provider_registry.h"
#include "workload/ssb.h"
#include "workload/timeline.h"

namespace cloudview {
namespace {

/// Self-owning planner substrate on the SSB cube (the 4-dimensional
/// lattice where selections actually go stale under churn).
struct Instance {
  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
};

Instance MakeSsbInstance() {
  Instance inst;
  inst.lattice = std::make_unique<CubeLattice>(
      CubeLattice::Build(MakeSsbSchema(SsbConfig{}).value()).MoveValue());
  inst.simulator = std::make_unique<MapReduceSimulator>(
      *inst.lattice, MapReduceParams{});
  inst.pricing = std::make_unique<PricingModel>(
      ProviderRegistry::Global()
          .Model("aws-2012")
          .MoveValue()
          .WithComputeGranularity(BillingGranularity::kSecond));
  inst.cost_model = std::make_unique<CloudCostModel>(*inst.pricing);
  inst.cluster =
      ClusterSpec{inst.pricing->instances().Find("small").value(), 5};
  return inst;
}

WorkloadTimeline MakeDriftingTimeline(const CubeLattice& lattice,
                                      size_t num_periods = 8,
                                      double churn = 0.35) {
  Workload ssb = MakeSsbWorkload(lattice).MoveValue();
  std::vector<QuerySpec> mix = ssb.queries();
  for (QuerySpec& q : mix) q.frequency = 30;
  std::vector<std::unique_ptr<DriftModel>> drift;
  drift.push_back(std::make_unique<FrequencyDecayDrift>(0.95));
  drift.push_back(std::make_unique<QueryChurnDrift>(churn));
  drift.push_back(std::make_unique<DatasetGrowthDrift>(0.03));
  TimelineOptions options;
  options.num_periods = num_periods;
  options.seed = 17;
  return WorkloadTimeline::Generate(lattice, Workload(std::move(mix)),
                                    std::move(drift), options)
      .MoveValue();
}

TemporalPlanner MakePlanner(const Instance& inst,
                            const WorkloadTimeline& timeline) {
  CandidateGenOptions candidates;
  candidates.max_candidates = 20;
  candidates.max_rows_fraction = 0.10;
  return TemporalPlanner::Create(*inst.lattice, *inst.simulator,
                                 inst.cluster, *inst.cost_model, timeline,
                                 candidates, /*maintenance_cycles=*/4)
      .MoveValue();
}

ObjectiveSpec Mv3Spec() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  return spec;
}

TEST(ReselectPolicy, Names) {
  EXPECT_EQ(ReselectPolicy::Static().Name(), "static");
  EXPECT_EQ(ReselectPolicy::EveryK(3).Name(), "every-3");
  EXPECT_EQ(ReselectPolicy::OnDrift(0.25).Name(), "drift-0.25");
}

TEST(TemporalPlanner, StaticPolicySolvesOnceAndHolds) {
  Instance inst = MakeSsbInstance();
  WorkloadTimeline timeline = MakeDriftingTimeline(*inst.lattice);
  TemporalPlanner planner = MakePlanner(inst, timeline);
  TemporalRunResult run =
      planner.Run(Mv3Spec(), ReselectPolicy::Static()).MoveValue();

  ASSERT_EQ(run.ledger.size(), timeline.num_periods());
  EXPECT_EQ(run.solver_runs, 1u);
  EXPECT_EQ(run.warm_periods, timeline.num_periods() - 1);
  EXPECT_TRUE(run.ledger[0].reselected);
  EXPECT_FALSE(run.ledger[0].selected.empty());
  for (size_t p = 1; p < run.ledger.size(); ++p) {
    EXPECT_FALSE(run.ledger[p].reselected);
    // Held selection: no transitions, no build charges.
    EXPECT_EQ(run.ledger[p].selected, run.ledger[0].selected);
    EXPECT_EQ(run.ledger[p].views_added, 0u);
    EXPECT_EQ(run.ledger[p].views_dropped, 0u);
    EXPECT_EQ(run.ledger[p].cost.materialization, Money::Zero());
  }
}

TEST(TemporalPlanner, EveryKReselectsOnCadence) {
  Instance inst = MakeSsbInstance();
  WorkloadTimeline timeline = MakeDriftingTimeline(*inst.lattice);
  TemporalPlanner planner = MakePlanner(inst, timeline);
  TemporalRunResult run =
      planner.Run(Mv3Spec(), ReselectPolicy::EveryK(3)).MoveValue();
  for (const TemporalPeriodRow& row : run.ledger) {
    EXPECT_EQ(row.reselected, row.period % 3 == 0) << row.period;
  }
  EXPECT_EQ(run.solver_runs + run.warm_periods, run.ledger.size());
}

TEST(TemporalPlanner, DriftPolicyHonoursThreshold) {
  Instance inst = MakeSsbInstance();
  WorkloadTimeline timeline = MakeDriftingTimeline(*inst.lattice);
  TemporalPlanner planner = MakePlanner(inst, timeline);
  TemporalRunResult eager =
      planner.Run(Mv3Spec(), ReselectPolicy::OnDrift(0.0)).MoveValue();
  // Zero threshold: every period re-solves.
  EXPECT_EQ(eager.solver_runs, timeline.num_periods());
  TemporalRunResult reluctant =
      planner.Run(Mv3Spec(), ReselectPolicy::OnDrift(0.99)).MoveValue();
  // A near-impossible threshold solves (almost) only in period 0.
  EXPECT_LT(reluctant.solver_runs, eager.solver_runs);
  for (const TemporalPeriodRow& row : eager.ledger) {
    if (row.period == 0) continue;
    EXPECT_GE(row.drift, 0.0);
    EXPECT_LE(row.drift, 1.0);
  }
}

TEST(TemporalPlanner, LedgerRowsSumToTheTotal) {
  Instance inst = MakeSsbInstance();
  WorkloadTimeline timeline = MakeDriftingTimeline(*inst.lattice);
  TemporalPlanner planner = MakePlanner(inst, timeline);
  TemporalRunResult run =
      planner.Run(Mv3Spec(), ReselectPolicy::EveryK(2)).MoveValue();
  CostBreakdown sum;
  Duration processing = Duration::Zero();
  for (const TemporalPeriodRow& row : run.ledger) {
    sum += row.cost;
    processing += row.processing_time;
    EXPECT_GT(row.cost.processing, Money::Zero()) << row.period;
    EXPECT_GE(row.cost.storage, Money::Zero()) << row.period;
  }
  EXPECT_EQ(sum.total(), run.total.total());
  EXPECT_EQ(sum.processing, run.total.processing);
  EXPECT_EQ(sum.storage, run.total.storage);
  EXPECT_EQ(processing, run.TotalProcessingTime());
}

TEST(TemporalPlanner, TransitionsMatchSelectionDiffs) {
  Instance inst = MakeSsbInstance();
  WorkloadTimeline timeline = MakeDriftingTimeline(*inst.lattice);
  TemporalPlanner planner = MakePlanner(inst, timeline);
  TemporalRunResult run =
      planner.Run(Mv3Spec(), ReselectPolicy::OnDrift(0.2)).MoveValue();
  std::vector<size_t> prev;
  for (const TemporalPeriodRow& row : run.ledger) {
    std::set<size_t> before(prev.begin(), prev.end());
    std::set<size_t> after(row.selected.begin(), row.selected.end());
    size_t added = 0;
    size_t dropped = 0;
    for (size_t c : after) added += before.count(c) == 0 ? 1 : 0;
    for (size_t c : before) dropped += after.count(c) == 0 ? 1 : 0;
    EXPECT_EQ(row.views_added, added) << row.period;
    EXPECT_EQ(row.views_dropped, dropped) << row.period;
    if (!row.reselected) {
      EXPECT_EQ(added + dropped, 0u) << row.period;
    }
    if (added == 0) {
      EXPECT_EQ(row.cost.materialization, Money::Zero()) << row.period;
    } else {
      EXPECT_GT(row.cost.materialization, Money::Zero()) << row.period;
    }
    prev = row.selected;
  }
}

TEST(TemporalPlanner, ReselectOnDriftBeatsStaticUnderChurn) {
  // The acceptance headline, pinned as a test: on a drifting SSB year,
  // adapting the selection is cheaper over the horizon than holding the
  // period-0 selection — transition costs included.
  Instance inst = MakeSsbInstance();
  WorkloadTimeline timeline =
      MakeDriftingTimeline(*inst.lattice, /*num_periods=*/12);
  TemporalPlanner planner = MakePlanner(inst, timeline);
  std::vector<TemporalRunResult> runs =
      planner
          .ComparePolicies(Mv3Spec(), {ReselectPolicy::Static(),
                                       ReselectPolicy::OnDrift(0.25)})
          .MoveValue();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_GT(runs[1].solver_runs, 1u);
  EXPECT_LT(runs[1].total.total(), runs[0].total.total());
}

TEST(TemporalPlanner, RejectsBadPolicyAndSolver) {
  Instance inst = MakeSsbInstance();
  WorkloadTimeline timeline =
      MakeDriftingTimeline(*inst.lattice, /*num_periods=*/2);
  TemporalPlanner planner = MakePlanner(inst, timeline);
  EXPECT_TRUE(planner.Run(Mv3Spec(), ReselectPolicy::EveryK(0))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(planner.Run(Mv3Spec(), ReselectPolicy::OnDrift(1.5))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(planner.Run(Mv3Spec(), ReselectPolicy::Static(), "astar")
                  .status()
                  .IsNotFound());
}

TEST(CloudScenario, TimelineRequestsWireThePlanner) {
  // The scenario-level entry point on the paper's sales cube: provider
  // and solver by name, config-supplied candidate options.
  ScenarioConfig config;
  config.sales.logical_size = DataSize::FromGB(10);
  config.mapreduce.job_startup = Duration::FromSeconds(45);
  config.mapreduce.map_throughput_per_unit =
      DataSize::FromBytes(2'100 * 1024);
  config.candidates.max_rows_fraction = 0.05;
  config.maintenance_cycles = 2;
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();

  Workload base = scenario.PaperWorkload().MoveValue();
  std::vector<std::unique_ptr<DriftModel>> drift;
  drift.push_back(std::make_unique<QueryChurnDrift>(0.3));
  TimelineOptions options;
  options.num_periods = 4;
  WorkloadTimeline timeline =
      WorkloadTimeline::Generate(scenario.lattice(), base,
                                 std::move(drift), options)
          .MoveValue();

  TemporalRunResult run =
      scenario
          .Dispatch({.kind = AdvisorRequestKind::kTimeline,
                     .solver = "greedy",
                     .objective = Mv3Spec(),
                     .policy = ReselectPolicy::EveryK(2),
                     .inline_timeline = &timeline})
          .MoveValue()
          .timeline;
  ASSERT_EQ(run.ledger.size(), 4u);
  EXPECT_EQ(run.solver, "greedy");
  EXPECT_EQ(run.solver_runs, 2u);
  EXPECT_GT(run.total.total(), Money::Zero());

  AdvisorRequest compare{.kind = AdvisorRequestKind::kComparePolicies,
                         .objective = Mv3Spec(),
                         .inline_timeline = &timeline};
  compare.policies = {ReselectPolicy::Static(), ReselectPolicy::OnDrift(0.2)};
  std::vector<TemporalRunResult> runs =
      scenario.Dispatch(compare).MoveValue().policies;
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].policy.kind, ReselectPolicy::Kind::kStatic);
}

}  // namespace
}  // namespace cloudview
