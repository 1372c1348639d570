// Cost-model invariants, swept across every combination of billing
// granularity and storage semantics (parameterized property tests).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/random.h"
#include "core/cost/cloud_cost_model.h"
#include "pricing/providers.h"

namespace cloudview {
namespace {

using BillingCombo = std::tuple<BillingGranularity, StorageBilling, bool>;

class CostModelPropertyTest
    : public ::testing::TestWithParam<BillingCombo> {
 protected:
  CostModelPropertyTest()
      : pricing_(ProviderRegistry::Global().Model("aws-2012").value()
                     .WithComputeGranularity(std::get<0>(GetParam()))
                     .WithStorageBilling(std::get<1>(GetParam()))),
        model_(pricing_) {}

  DeploymentSpec MakeDeployment() const {
    DeploymentSpec spec;
    spec.instance = pricing_.instances().Find("small").value();
    spec.nb_instances = 5;
    spec.storage_period = Months::FromMonths(1);
    spec.base_storage = StorageTimeline(DataSize::FromGB(10));
    spec.maintenance_cycles = 1;
    spec.single_compute_session = std::get<2>(GetParam());
    return spec;
  }

  static WorkloadCostInput MakeWorkload(double hours) {
    WorkloadCostInput workload;
    workload.queries.push_back({"q1", Duration::FromHoursRounded(hours),
                                DataSize::FromMB(200), DataSize::Zero(),
                                1});
    workload.queries.push_back(
        {"q2", Duration::FromHoursRounded(hours / 2),
         DataSize::FromMB(100), DataSize::Zero(), 2});
    return workload;
  }

  static ViewSetCostInput MakeViews(int count) {
    ViewSetCostInput views;
    for (int i = 0; i < count; ++i) {
      views.views.push_back(
          {"v" + std::to_string(i), Duration::FromMinutes(20),
           Duration::FromMinutes(5), DataSize::FromMB(100 * (i + 1))});
    }
    return views;
  }

  PricingModel pricing_;
  CloudCostModel model_;
};

TEST_P(CostModelPropertyTest, TotalIsSumOfParts) {
  DeploymentSpec spec = MakeDeployment();
  CostBreakdown breakdown =
      model_.CostWithViews(MakeWorkload(1.0), MakeViews(2), spec)
          .MoveValue();
  EXPECT_EQ(breakdown.total(),
            breakdown.compute() + breakdown.storage + breakdown.transfer);
  EXPECT_EQ(breakdown.compute(),
            breakdown.processing + breakdown.materialization +
                breakdown.maintenance + breakdown.session_rounding);
}

TEST_P(CostModelPropertyTest, AllComponentsNonNegative) {
  DeploymentSpec spec = MakeDeployment();
  CostBreakdown breakdown =
      model_.CostWithViews(MakeWorkload(0.7), MakeViews(3), spec)
          .MoveValue();
  EXPECT_GE(breakdown.processing, Money::Zero());
  EXPECT_GE(breakdown.materialization, Money::Zero());
  EXPECT_GE(breakdown.maintenance, Money::Zero());
  EXPECT_GE(breakdown.session_rounding, Money::Zero());
  EXPECT_GE(breakdown.storage, Money::Zero());
  EXPECT_GE(breakdown.transfer, Money::Zero());
}

TEST_P(CostModelPropertyTest, MoreViewsNeverCheapenStorage) {
  DeploymentSpec spec = MakeDeployment();
  WorkloadCostInput workload = MakeWorkload(1.0);
  Money prev = model_.CostWithViews(workload, MakeViews(0), spec)
                   .MoveValue()
                   .storage;
  for (int n = 1; n <= 4; ++n) {
    Money current = model_.CostWithViews(workload, MakeViews(n), spec)
                        .MoveValue()
                        .storage;
    EXPECT_GE(current, prev) << n << " views";
    prev = current;
  }
}

TEST_P(CostModelPropertyTest, TransferIndependentOfViews) {
  DeploymentSpec spec = MakeDeployment();
  WorkloadCostInput workload = MakeWorkload(1.0);
  Money without = model_.CostWithoutViews(workload, spec)
                      .MoveValue()
                      .transfer;
  Money with = model_.CostWithViews(workload, MakeViews(3), spec)
                   .MoveValue()
                   .transfer;
  EXPECT_EQ(without, with);
}

TEST_P(CostModelPropertyTest, ProcessingMonotoneInWorkloadTime) {
  DeploymentSpec spec = MakeDeployment();
  Money prev = Money::Zero();
  for (double hours : {0.5, 1.0, 2.0, 4.0}) {
    CostBreakdown breakdown =
        model_.CostWithoutViews(MakeWorkload(hours), spec).MoveValue();
    Money compute = breakdown.compute();
    EXPECT_GE(compute, prev);
    prev = compute;
  }
}

TEST_P(CostModelPropertyTest, MoreInstancesCostProportionally) {
  DeploymentSpec spec = MakeDeployment();
  WorkloadCostInput workload = MakeWorkload(1.0);
  CostBreakdown five = model_.CostWithoutViews(workload, spec).MoveValue();
  spec.nb_instances = 10;
  CostBreakdown ten = model_.CostWithoutViews(workload, spec).MoveValue();
  EXPECT_EQ(ten.compute(), five.compute() * 2);
}

TEST_P(CostModelPropertyTest, SessionBillingNeverExceedsPerActivity) {
  // One rounding is at most three roundings: the session bill never
  // exceeds the per-activity bill under the same granularity.
  DeploymentSpec session = MakeDeployment();
  session.single_compute_session = true;
  DeploymentSpec per_activity = MakeDeployment();
  per_activity.single_compute_session = false;
  WorkloadCostInput workload = MakeWorkload(0.9);
  ViewSetCostInput views = MakeViews(2);
  Money bundled = model_.CostWithViews(workload, views, session)
                      .MoveValue()
                      .compute();
  Money split = model_.CostWithViews(workload, views, per_activity)
                    .MoveValue()
                    .compute();
  EXPECT_LE(bundled, split);
}

TEST_P(CostModelPropertyTest, ZeroMaintenanceCyclesZeroesMaintenance) {
  DeploymentSpec spec = MakeDeployment();
  spec.maintenance_cycles = 0;
  CostBreakdown breakdown =
      model_.CostWithViews(MakeWorkload(1.0), MakeViews(2), spec)
          .MoveValue();
  EXPECT_EQ(breakdown.maintenance, Money::Zero());
}

// The precondition a split-billing cost bound for branch-and-bound
// needs (DESIGN.md §13.2): billing two busy spans separately never
// costs less than billing their sum, up to one micro-dollar per
// instance from the exact-rational scaling's floor. Rounding up to the
// granularity is subadditive, so is min(on-demand, upfront + reserved
// rate) with a non-negative upfront, and no free tier waives compute.
TEST(ComputeBillProperty, ComputeBillIsSubadditive) {
  Rng rng(0x5AB);
  for (const std::string& name : ProviderRegistry::Global().Names()) {
    PricingModel sheet = ProviderRegistry::Global().Model(name).value();
    for (BillingGranularity granularity :
         {BillingGranularity::kHour, BillingGranularity::kMinute,
          BillingGranularity::kSecond}) {
      PricingModel pricing = sheet.WithComputeGranularity(granularity);
      for (const InstanceType& type : pricing.instances().types()) {
        for (int64_t count : {1, 3, 5}) {
          SCOPED_TRACE(name + "/" + ToString(granularity) + "/" +
                       type.name + " x" + std::to_string(count));
          for (int sample = 0; sample < 200; ++sample) {
            // Mostly spans of a few billing units, sometimes long ones,
            // so both the rounding and the reserved crossover show up.
            int64_t scale_ms = rng.Bernoulli(0.2)
                                   ? 400 * Duration::kMillisPerHour
                                   : 3 * Duration::kMillisPerHour;
            Duration a = Duration::FromMillis(rng.UniformInt(0, scale_ms));
            Duration b = Duration::FromMillis(rng.UniformInt(0, scale_ms));
            Money separate = pricing.ComputeCost(type, a, count) +
                             pricing.ComputeCost(type, b, count);
            Money joint = pricing.ComputeCost(type, a + b, count);
            ASSERT_GE(separate + Money::FromMicros(count), joint)
                << "a=" << a.millis() << "ms b=" << b.millis() << "ms";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BillingCombos, CostModelPropertyTest,
    ::testing::Combine(
        ::testing::Values(BillingGranularity::kHour,
                          BillingGranularity::kMinute,
                          BillingGranularity::kSecond),
        ::testing::Values(StorageBilling::kFlatBracket,
                          StorageBilling::kMarginalTiers),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<BillingCombo>& info) {
      std::string name = ToString(std::get<0>(info.param));
      name += "_";
      name += std::get<1>(info.param) == StorageBilling::kFlatBracket
                  ? "flat"
                  : "marginal";
      name += std::get<2>(info.param) ? "_session" : "_peractivity";
      return name;
    });

}  // namespace
}  // namespace cloudview
