// Property test for the temporal layer: for random drift sequences and
// policies, every per-period figure in TemporalPlanner's ledger must
// equal a from-scratch reconstruction — an independent
// SelectionEvaluator::Evaluate of each period's selection plus direct
// component-model pricing (extends the subset_state_property_test
// contract across time).
//
// The planner prices carried periods from a warm-started SubsetState
// and computes storage as marginal slices of one horizon timeline; this
// test rebuilds each period cold and integrates storage over the whole
// horizon, so any drift between the incremental and exact paths fails
// loudly.

#include "core/optimizer/temporal_planner.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "engine/sales_generator.h"
#include "pricing/provider_registry.h"
#include "workload/ssb.h"
#include "workload/timeline.h"

namespace cloudview {
namespace {

struct Instance {
  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
};

Instance MakeInstance(BillingGranularity granularity) {
  Instance inst;
  inst.lattice = std::make_unique<CubeLattice>(
      CubeLattice::Build(MakeSsbSchema(SsbConfig{}).value()).MoveValue());
  inst.simulator = std::make_unique<MapReduceSimulator>(
      *inst.lattice, MapReduceParams{});
  inst.pricing = std::make_unique<PricingModel>(
      ProviderRegistry::Global()
          .Model("aws-2012")
          .MoveValue()
          .WithComputeGranularity(granularity));
  inst.cost_model = std::make_unique<CloudCostModel>(*inst.pricing);
  inst.cluster =
      ClusterSpec{inst.pricing->instances().Find("small").value(), 5};
  return inst;
}

struct Variant {
  const char* label;
  BillingGranularity granularity;
  double churn;
  double decay;
  double growth;
  int64_t maintenance_cycles;
  ReselectPolicy policy;
  uint64_t seed;
};

WorkloadTimeline MakeTimeline(const Instance& inst,
                              const Variant& variant) {
  Workload ssb = MakeSsbWorkload(*inst.lattice).MoveValue();
  std::vector<QuerySpec> mix = ssb.queries();
  for (QuerySpec& q : mix) q.frequency = 25;
  std::vector<std::unique_ptr<DriftModel>> drift;
  drift.push_back(
      std::make_unique<FrequencyDecayDrift>(variant.decay));
  drift.push_back(std::make_unique<QueryChurnDrift>(variant.churn));
  drift.push_back(std::make_unique<SeasonalSpikeDrift>(3, 1, 0.8));
  drift.push_back(
      std::make_unique<DatasetGrowthDrift>(variant.growth));
  TimelineOptions options;
  options.num_periods = 6;
  options.seed = variant.seed;
  return WorkloadTimeline::Generate(*inst.lattice,
                                    Workload(std::move(mix)),
                                    std::move(drift), options)
      .MoveValue();
}

TemporalPlanner MakePlanner(const Instance& inst, const Variant& variant,
                            const WorkloadTimeline& timeline) {
  CandidateGenOptions candidate_options;
  candidate_options.max_candidates = 16;
  candidate_options.max_rows_fraction = 0.10;
  return TemporalPlanner::Create(*inst.lattice, *inst.simulator,
                                 inst.cluster, *inst.cost_model, timeline,
                                 candidate_options,
                                 variant.maintenance_cycles)
      .MoveValue();
}

ObjectiveSpec Mv3Spec() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  return spec;
}

class TemporalPropertyTest : public ::testing::TestWithParam<Variant> {};

TEST_P(TemporalPropertyTest, LedgerMatchesFromScratchEvaluation) {
  const Variant& variant = GetParam();
  Instance inst = MakeInstance(variant.granularity);
  WorkloadTimeline timeline = MakeTimeline(inst, variant);
  TemporalPlanner planner = MakePlanner(inst, variant, timeline);

  ObjectiveSpec spec = Mv3Spec();
  TemporalRunResult run =
      planner.Run(spec, variant.policy).MoveValue();
  ASSERT_EQ(run.ledger.size(), timeline.num_periods());

  const std::vector<ViewCandidate>& candidates = planner.candidates();
  const ComputeCostModel& compute = inst.cost_model->compute();
  const TransferCostModel& transfer = inst.cost_model->transfer();
  const StorageCostModel& storage = inst.cost_model->storage();

  // From-scratch reconstruction, period by period.
  DataSize base_volume = inst.lattice->fact_scan_size();
  StorageTimeline horizon_storage(base_volume);
  Money storage_so_far;
  std::vector<size_t> prev;
  Workload last_solve_mix;
  for (size_t p = 0; p < run.ledger.size(); ++p) {
    SCOPED_TRACE(testing::Message() << variant.label << " period " << p);
    const TemporalPeriodRow& row = run.ledger[p];
    const TimelinePeriod& period = timeline.period(p);

    // Drift is measured against the mix at the last re-selection.
    if (p > 0) {
      EXPECT_DOUBLE_EQ(
          row.drift,
          WorkloadTimeline::Drift(period.workload, last_solve_mix));
    }
    if (row.reselected) last_solve_mix = period.workload;

    // The planner's transition-aware candidate set: carried views have
    // their build time sunk.
    std::vector<ViewCandidate> period_candidates = candidates;
    std::set<size_t> carried(prev.begin(), prev.end());
    for (size_t c : carried) {
      period_candidates[c].materialization_time = Duration::Zero();
    }

    DeploymentSpec deployment;
    deployment.instance = inst.cluster.instance;
    deployment.nb_instances = inst.cluster.nodes;
    deployment.storage_period = timeline.period_length();
    deployment.base_storage = StorageTimeline(base_volume);
    if (p == 0) {
      deployment.ingress.initial_dataset =
          inst.lattice->fact_scan_size();
    }
    deployment.ingress.inserted_data = period.base_growth;
    deployment.maintenance_cycles = variant.maintenance_cycles;

    SelectionEvaluator evaluator =
        SelectionEvaluator::Create(*inst.lattice, period.workload,
                                   *inst.simulator, inst.cluster,
                                   *inst.cost_model, deployment,
                                   std::move(period_candidates))
            .MoveValue();

    // The ground truth the incremental warm start must match exactly.
    SubsetEvaluation full = evaluator.Evaluate(row.selected).MoveValue();
    EXPECT_EQ(row.processing_time, full.processing_time);
    EXPECT_EQ(row.cost.processing,
              compute.ProcessingCost(full.workload_input,
                                     deployment.instance,
                                     deployment.nb_instances));
    EXPECT_EQ(row.cost.maintenance,
              compute.MaintenanceCost(full.view_input,
                                      deployment.instance,
                                      deployment.nb_instances,
                                      variant.maintenance_cycles));
    // With carried builds zeroed, the subset's materialization total is
    // exactly the newly added views' build time.
    EXPECT_EQ(row.cost.materialization,
              compute.MaterializationCost(full.view_input,
                                          deployment.instance,
                                          deployment.nb_instances));

    // Transition accounting vs an independent set diff.
    DataSize added_bytes;
    DataSize dropped_bytes;
    size_t added = 0;
    size_t dropped = 0;
    std::set<size_t> now(row.selected.begin(), row.selected.end());
    for (size_t c : now) {
      if (carried.count(c) == 0) {
        ++added;
        added_bytes += candidates[c].size;
      }
    }
    for (size_t c : carried) {
      if (now.count(c) == 0) {
        ++dropped;
        dropped_bytes += candidates[c].size;
      }
    }
    EXPECT_EQ(row.views_added, added);
    EXPECT_EQ(row.views_dropped, dropped);

    // Transfer: the period's results out, plus initial dataset (period
    // 0), base growth and freshly built view bytes in.
    IngressVolumes ingress = deployment.ingress;
    ingress.inserted_data += added_bytes;
    EXPECT_EQ(row.cost.transfer,
              transfer.GeneralTransferCost(full.workload_input, ingress));
    EXPECT_EQ(row.cost.requests,
              transfer.RequestCost(full.workload_input));

    // Storage: this period's slice of the one horizon-long timeline.
    Months at = timeline.PeriodStart(p);
    if (p > 0 && period.base_growth.bytes() != 0) {
      ASSERT_TRUE(
          horizon_storage.AddDelta(at, period.base_growth).ok());
    }
    if (added_bytes.bytes() != 0) {
      ASSERT_TRUE(horizon_storage.AddDelta(at, added_bytes).ok());
    }
    if (dropped_bytes.bytes() != 0) {
      ASSERT_TRUE(
          horizon_storage
              .AddDelta(at, DataSize::FromBytes(-dropped_bytes.bytes()))
              .ok());
    }
    Money cumulative =
        storage.Cost(horizon_storage, timeline.PeriodStart(p + 1))
            .MoveValue();
    EXPECT_EQ(row.cost.storage, cumulative - storage_so_far);
    storage_so_far = cumulative;

    prev = row.selected;
  }

  // The horizon bill: rows sum to the total, and the storage slices
  // integrate to the exact Formula 5 over the whole horizon.
  CostBreakdown sum;
  for (const TemporalPeriodRow& row : run.ledger) sum += row.cost;
  EXPECT_EQ(sum.total(), run.total.total());
  EXPECT_EQ(run.total.storage,
            storage.Cost(horizon_storage, timeline.horizon()).MoveValue());
}

void ExpectSameBreakdown(const CostBreakdown& a, const CostBreakdown& b) {
  EXPECT_EQ(a.processing, b.processing);
  EXPECT_EQ(a.materialization, b.materialization);
  EXPECT_EQ(a.maintenance, b.maintenance);
  EXPECT_EQ(a.storage, b.storage);
  EXPECT_EQ(a.transfer, b.transfer);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.session_rounding, b.session_rounding);
  EXPECT_EQ(a.interruption, b.interruption);
  EXPECT_EQ(a.inter_az, b.inter_az);
}

// ComparePolicies shares one memo of re-selection winners across its
// walks. Its rows must equal standalone Run() walks field for field.
// every-1 and drift-0.00 re-select in every period and share every
// subproblem, while every-3 and drift-0.25 reach the same periods with
// other carried selections: a memo keyed on the period alone fails
// here.
TEST_P(TemporalPropertyTest, ComparePoliciesMemoMatchesStandaloneRuns) {
  const Variant& variant = GetParam();
  Instance inst = MakeInstance(variant.granularity);
  WorkloadTimeline timeline = MakeTimeline(inst, variant);
  TemporalPlanner planner = MakePlanner(inst, variant, timeline);
  ObjectiveSpec spec = Mv3Spec();
  const std::vector<ReselectPolicy> policies = {
      ReselectPolicy::Static(), ReselectPolicy::EveryK(1),
      ReselectPolicy::EveryK(3), ReselectPolicy::OnDrift(0.0),
      ReselectPolicy::OnDrift(0.25)};

  std::vector<TemporalRunResult> compared =
      planner.ComparePolicies(spec, policies).MoveValue();
  ASSERT_EQ(compared.size(), policies.size());
  uint64_t solver_runs = 0;
  uint64_t fresh_solves = 0;
  for (size_t i = 0; i < policies.size(); ++i) {
    SCOPED_TRACE(testing::Message()
                 << variant.label << " " << policies[i].Name());
    TemporalRunResult alone = planner.Run(spec, policies[i]).MoveValue();
    const TemporalRunResult& memo = compared[i];
    EXPECT_EQ(memo.policy.Name(), alone.policy.Name());
    EXPECT_EQ(memo.solver, alone.solver);
    EXPECT_EQ(memo.solver_runs, alone.solver_runs);
    EXPECT_EQ(memo.warm_periods, alone.warm_periods);
    ExpectSameBreakdown(memo.total, alone.total);
    ASSERT_EQ(memo.ledger.size(), alone.ledger.size());
    for (size_t p = 0; p < alone.ledger.size(); ++p) {
      SCOPED_TRACE(testing::Message() << "period " << p);
      const TemporalPeriodRow& a = memo.ledger[p];
      const TemporalPeriodRow& b = alone.ledger[p];
      EXPECT_EQ(a.period, b.period);
      EXPECT_EQ(a.selected, b.selected);
      EXPECT_EQ(a.reselected, b.reselected);
      EXPECT_EQ(a.drift, b.drift);
      EXPECT_EQ(a.views_added, b.views_added);
      EXPECT_EQ(a.views_dropped, b.views_dropped);
      EXPECT_EQ(a.processing_time, b.processing_time);
      ExpectSameBreakdown(a.cost, b.cost);
    }
    // A standalone walk solves every re-selection itself.
    EXPECT_EQ(alone.fresh_solves, alone.solver_runs);
    EXPECT_LE(memo.fresh_solves, memo.solver_runs);
    solver_runs += memo.solver_runs;
    fresh_solves += memo.fresh_solves;
  }
  // Every policy re-selects period 0 from the same empty start, so the
  // memo answers at least the four repeats of that subproblem, and
  // drift-0.00 retraces every-1's walk without solving at all.
  EXPECT_LE(fresh_solves + (policies.size() - 1), solver_runs);
  EXPECT_EQ(compared[3].fresh_solves, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DriftVariants, TemporalPropertyTest,
    ::testing::Values(
        Variant{"second_static", BillingGranularity::kSecond, 0.4, 0.9,
                0.05, 0, ReselectPolicy::Static(), 3},
        Variant{"second_drift", BillingGranularity::kSecond, 0.35, 0.95,
                0.03, 4, ReselectPolicy::OnDrift(0.2), 17},
        Variant{"second_heavy_churn", BillingGranularity::kSecond, 0.6,
                0.85, 0.0, 2, ReselectPolicy::OnDrift(0.1), 29},
        Variant{"hour_every2", BillingGranularity::kHour, 0.35, 0.95,
                0.03, 3, ReselectPolicy::EveryK(2), 7},
        Variant{"minute_every1", BillingGranularity::kMinute, 0.5, 0.9,
                0.08, 1, ReselectPolicy::EveryK(1), 11}),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace cloudview
