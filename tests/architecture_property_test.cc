// Property suite for the architecture layer (DESIGN.md §15), across
// random (sheet, architecture, billing spec) triples:
//   * the allocation-free fast cost path under any lowered architecture
//     equals the from-scratch Evaluate() ground truth bit-for-bit, on
//     random toggle walks (extends subset_state_property_test);
//   * the spot expectation is monotone: a higher interruption rate
//     never cheapens a bill with builds in it;
//   * "arch-sweep" is bit-identical at CLOUDVIEW_THREADS=1 vs 8 (the
//     shared-nothing clone + index-ordered reduction determinism rule).

#include "catalog/architecture.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/str_format.h"
#include "common/thread_pool.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/solver.h"
#include "engine/sales_generator.h"
#include "pricing/provider_registry.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

struct Fixture {
  Fixture(const std::string& sheet, BillingGranularity granularity,
          int64_t maintenance_cycles) {
    lattice = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(SalesConfig{}).value())
            .MoveValue());
    MapReduceParams params;
    params.job_startup = Duration::FromSeconds(45);
    params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
    simulator = std::make_unique<MapReduceSimulator>(*lattice, params);
    pricing = std::make_unique<PricingModel>(
        ProviderRegistry::Global()
            .Model(sheet)
            .MoveValue()
            .WithComputeGranularity(granularity));
    cost_model = std::make_unique<CloudCostModel>(*pricing);
    // Every sheet names its tiers differently; the cheapest type is
    // always present.
    InstanceType instance =
        pricing->instances().CheapestWithUnits(1).value();
    cluster = ClusterSpec{instance, 5};
    deployment.instance = cluster.instance;
    deployment.nb_instances = cluster.nodes;
    deployment.storage_period = Months::FromMilli(4);
    deployment.base_storage = StorageTimeline(lattice->fact_scan_size());
    deployment.ingress.initial_dataset = lattice->fact_scan_size();
    deployment.maintenance_cycles = maintenance_cycles;

    workload = MakePaperWorkload(*lattice).MoveValue();
    CandidateGenOptions options;
    options.max_candidates = 12;
    options.max_rows_fraction = 0.05;
    candidates = GenerateCandidates(*lattice, workload, *simulator,
                                    cluster, options)
                     .MoveValue();
  }

  SelectionEvaluator MakeEvaluator(const ArchitectureModel& model) const {
    DeploymentSpec arch_deployment = deployment;
    arch_deployment.architecture = model;
    return SelectionEvaluator::Create(*lattice, workload, *simulator,
                                      cluster, *cost_model,
                                      arch_deployment, candidates)
        .MoveValue();
  }

  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
  DeploymentSpec deployment;
  Workload workload{std::vector<QuerySpec>{}};
  std::vector<ViewCandidate> candidates;
};

/// A random structurally-valid architecture; Lower() may still reject
/// it on sheets without the drawn plan's rate (callers skip those).
ArchitectureSpec RandomArchitecture(Rng& rng) {
  ArchitectureSpec spec;
  spec.name = "random";
  const int64_t replicas = 1 + static_cast<int64_t>(rng.Uniform(4));
  const int64_t zones = 1 + static_cast<int64_t>(
                                rng.Uniform(static_cast<uint64_t>(replicas)));
  PurchasePlan plan = rng.Bernoulli(0.4)   ? PurchasePlan::kSpot
                      : rng.Bernoulli(0.3) ? PurchasePlan::kReserved
                                           : PurchasePlan::kOnDemand;
  spec.groups.push_back(NodeGroupSpec{"primary", replicas, zones, plan});
  if (rng.Bernoulli(0.3)) {
    spec.groups.push_back(NodeGroupSpec{"burst", 1, 1,
                                        rng.Bernoulli(0.5)
                                            ? PurchasePlan::kSpot
                                            : PurchasePlan::kOnDemand});
  }
  spec.durability = rng.Bernoulli(0.5)   ? DurabilityTier::kLocal
                    : rng.Bernoulli(0.5) ? DurabilityTier::kZonal
                                         : DurabilityTier::kRegional;
  return spec;
}

TEST(ArchitectureProperty, FastPathMatchesExactUnderRandomArchitectures) {
  struct Variant {
    const char* sheet;
    BillingGranularity granularity;
    int64_t maintenance_cycles;
    uint64_t seed;
  };
  for (const Variant& variant :
       {Variant{"aws-2012", BillingGranularity::kSecond, 0, 5},
        Variant{"aws-2012", BillingGranularity::kHour, 3, 7},
        Variant{"gigacloud", BillingGranularity::kSecond, 2, 11},
        Variant{"nimbus", BillingGranularity::kMinute, 1, 13},
        Variant{"bluecloud", BillingGranularity::kHour, 4, 17}}) {
    SCOPED_TRACE(variant.sheet);
    Fixture fixture(variant.sheet, variant.granularity,
                    variant.maintenance_cycles);
    Rng rng(variant.seed);
    for (int trial = 0; trial < 4; ++trial) {
      Result<ArchitectureModel> model =
          RandomArchitecture(rng).Lower(*fixture.pricing,
                                        fixture.cluster.instance);
      if (!model.ok()) continue;  // Plan the sheet cannot price.
      SCOPED_TRACE(StrFormat(
          "trial=%d compute=%lld/%lld fanout=%lld/%lld storage=%lld "
          "interruption=%lld/%lld xaz=%lld",
          trial, static_cast<long long>(model->compute_num),
          static_cast<long long>(model->compute_den),
          static_cast<long long>(model->fanout_num),
          static_cast<long long>(model->fanout_den),
          static_cast<long long>(model->storage_num),
          static_cast<long long>(model->interruption_num),
          static_cast<long long>(model->interruption_den),
          static_cast<long long>(model->cross_az_copies)));
      SelectionEvaluator evaluator = fixture.MakeEvaluator(model.value());

      // Random toggle walk: the incremental fast path must track the
      // exact bill through every intermediate subset.
      SubsetState state(evaluator);
      for (int step = 0; step < 24; ++step) {
        state.Toggle(rng.Uniform(evaluator.candidates().size()));
        SubsetEvaluation full =
            evaluator.Evaluate(state.Selected()).MoveValue();
        ASSERT_EQ(evaluator.FastTotalCost(state),
                  full.cost.total());
        // The architecture terms land in their own breakdown rows and
        // re-total exactly.
        ASSERT_EQ(full.cost.total(),
                  full.cost.processing + full.cost.materialization +
                      full.cost.maintenance + full.cost.interruption +
                      full.cost.storage + full.cost.transfer +
                      full.cost.requests + full.cost.inter_az +
                      full.cost.session_rounding);
      }

      // CloneWithArchitecture from an identity evaluator reproduces the
      // arch-deployment evaluator's bills exactly (the arch-sweep task
      // handoff path).
      SelectionEvaluator cloned =
          fixture.MakeEvaluator(ArchitectureModel{})
              .CloneWithArchitecture(model.value())
              .MoveValue();
      SubsetEvaluation direct =
          evaluator.Evaluate(state.Selected()).MoveValue();
      SubsetEvaluation via_clone =
          cloned.Evaluate(state.Selected()).MoveValue();
      EXPECT_EQ(direct.cost.total(), via_clone.cost.total());
      EXPECT_EQ(direct.cost.interruption, via_clone.cost.interruption);
      EXPECT_EQ(direct.cost.inter_az, via_clone.cost.inter_az);
    }
  }
}

TEST(ArchitectureProperty, SpotExpectationIsMonotoneInInterruptionRate) {
  Fixture fixture("aws-2012", BillingGranularity::kSecond, 2);
  // A fixed spot fleet whose interruption odds sweep upward: the bill
  // for any subset with builds in it must be non-decreasing, strictly
  // once the surcharge crosses a micro-dollar.
  ArchitectureModel spot =
      DefaultArchitectureRoster()[2]
          .Lower(*fixture.pricing, fixture.cluster.instance)
          .MoveValue();
  Rng rng(23);
  std::vector<size_t> selected;
  for (size_t c = 0; c < fixture.candidates.size(); ++c) {
    if (rng.Bernoulli(0.5)) selected.push_back(c);
  }
  ASSERT_FALSE(selected.empty());

  Money previous;
  bool first = true;
  for (int64_t ppm : {0, 10'000, 50'000, 200'000, 500'000, 900'000}) {
    SCOPED_TRACE(ppm);
    ArchitectureModel model = spot;
    model.interruption_num = ppm;
    model.interruption_den = 1'000'000 - ppm;
    SelectionEvaluator evaluator = fixture.MakeEvaluator(model);
    SubsetEvaluation eval = evaluator.Evaluate(selected).MoveValue();
    if (ppm == 0) {
      EXPECT_TRUE(eval.cost.interruption.is_zero());
    } else {
      EXPECT_GT(eval.cost.interruption, Money());
    }
    if (!first) EXPECT_GE(eval.cost.total(), previous);
    previous = eval.cost.total();
    first = false;
  }
}

TEST(ArchitectureProperty, ArchSweepIsBitIdenticalAcrossThreadCounts) {
  Fixture fixture("aws-2012", BillingGranularity::kSecond, 2);
  SelectionEvaluator evaluator =
      fixture.MakeEvaluator(ArchitectureModel{});
  ViewSelector selector(evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  spec.max_monthly_cost = Money::FromDollars(500);

  size_t original = ThreadPool::Global().concurrency();
  ThreadPool::SetGlobalConcurrency(1);
  SelectionResult serial = selector.Solve(spec, "arch-sweep").MoveValue();
  ThreadPool::SetGlobalConcurrency(8);
  SelectionResult parallel =
      selector.Solve(spec, "arch-sweep").MoveValue();
  ThreadPool::SetGlobalConcurrency(original);

  // Bit-identical: same winning (architecture, view set) pair, same
  // bill, same frontier (scores, subsets, provenance, order).
  EXPECT_EQ(serial.architecture, parallel.architecture);
  EXPECT_EQ(serial.evaluation.selected, parallel.evaluation.selected);
  EXPECT_EQ(serial.evaluation.cost.total(),
            parallel.evaluation.cost.total());
  EXPECT_EQ(serial.multi, parallel.multi);
  ASSERT_EQ(serial.frontier.size(), parallel.frontier.size());
  for (size_t i = 0; i < serial.frontier.size(); ++i) {
    EXPECT_EQ(serial.frontier[i].score, parallel.frontier[i].score);
    EXPECT_EQ(serial.frontier[i].selected, parallel.frontier[i].selected);
    EXPECT_EQ(serial.frontier[i].origin, parallel.frontier[i].origin);
    EXPECT_EQ(serial.frontier[i].architecture,
              parallel.frontier[i].architecture);
  }
}

}  // namespace
}  // namespace cloudview
