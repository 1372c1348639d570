// PricingModel, provider catalogs and the billing meter.

#include "pricing/pricing_model.h"

#include <gtest/gtest.h>

#include <sstream>

#include "pricing/billing.h"
#include "pricing/providers.h"

namespace cloudview {
namespace {

TEST(PricingModel, CreateRequiresNameAndInstances) {
  PricingModelOptions opts;
  opts.instances.Add({.name = "x", .price_per_hour = Money::FromCents(1)});
  EXPECT_TRUE(PricingModel::Create(opts).status().IsInvalidArgument());

  PricingModelOptions no_instances;
  no_instances.name = "empty";
  EXPECT_TRUE(
      PricingModel::Create(no_instances).status().IsInvalidArgument());
}

PricingModelOptions MinimalOptions() {
  PricingModelOptions opts;
  opts.name = "minimal";
  opts.instances.Add({.name = "x", .price_per_hour = Money::FromCents(1)});
  return opts;
}

TEST(PricingModel, CreateRejectsNegativeInstanceRate) {
  PricingModelOptions opts = MinimalOptions();
  opts.instances.Add(
      {.name = "broken", .price_per_hour = Money::FromCents(-5)});
  Status status = PricingModel::Create(opts).status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("broken"), std::string::npos);
}

TEST(PricingModel, CreateRejectsNonPositiveComputeUnits) {
  PricingModelOptions opts = MinimalOptions();
  opts.instances.Add({.name = "inert",
                      .price_per_hour = Money::FromCents(1),
                      .compute_units = 0.0});
  EXPECT_TRUE(PricingModel::Create(opts).status().IsInvalidArgument());
}

TEST(PricingModel, CreateRejectsNegativeReservedRates) {
  PricingModelOptions opts = MinimalOptions();
  InstanceType type{.name = "r", .price_per_hour = Money::FromCents(10)};
  type.reserved_upfront = Money::FromCents(-1);
  type.reserved_price_per_hour = Money::FromCents(2);
  opts.instances.Add(type);
  EXPECT_TRUE(PricingModel::Create(opts).status().IsInvalidArgument());
}

TEST(PricingModel, CreateRejectsNegativeRequestAndFreeTier) {
  PricingModelOptions negative_requests = MinimalOptions();
  negative_requests.requests.price_per_10k = Money::FromCents(-1);
  EXPECT_TRUE(
      PricingModel::Create(negative_requests).status().IsInvalidArgument());

  PricingModelOptions zero_per_query = MinimalOptions();
  zero_per_query.requests.requests_per_query = 0;
  EXPECT_TRUE(
      PricingModel::Create(zero_per_query).status().IsInvalidArgument());

  PricingModelOptions negative_free = MinimalOptions();
  negative_free.free_tier.requests = -5;
  EXPECT_TRUE(
      PricingModel::Create(negative_free).status().IsInvalidArgument());
}

TEST(PricingModel, PaperTable2Instances) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  EXPECT_EQ(aws.instances().Find("micro")->price_per_hour,
            Money::FromCents(3));
  EXPECT_EQ(aws.instances().Find("small")->price_per_hour,
            Money::FromCents(12));
  EXPECT_EQ(aws.instances().Find("large")->price_per_hour,
            Money::FromCents(48));
  EXPECT_EQ(aws.instances().Find("xlarge")->price_per_hour,
            Money::FromCents(96));
  EXPECT_TRUE(aws.instances().Find("mega").status().IsNotFound());
}

TEST(PricingModel, PaperSmallInstanceShape) {
  // "1.7 GB RAM, 1 EC2 Compute Unit, 160 GB of local storage".
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  InstanceType small = aws.instances().Find("small").value();
  EXPECT_DOUBLE_EQ(small.compute_units, 1.0);
  EXPECT_EQ(small.local_storage, DataSize::FromGB(160));
}

TEST(InstanceCatalog, CheapestWithUnits) {
  InstanceCatalog catalog =
      ProviderRegistry::Global().Model("aws-2012")->instances();
  EXPECT_EQ(catalog.CheapestWithUnits(0.4)->name, "micro");
  EXPECT_EQ(catalog.CheapestWithUnits(1.0)->name, "small");
  EXPECT_EQ(catalog.CheapestWithUnits(1.5)->name, "large");
  EXPECT_EQ(catalog.CheapestWithUnits(8.0)->name, "xlarge");
  EXPECT_TRUE(catalog.CheapestWithUnits(100.0).status().IsNotFound());
}

TEST(PricingModel, ComputeCostGranularities) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  InstanceType small = aws.instances().Find("small").value();
  Duration busy = Duration::FromMinutes(61);

  // Hour: 61 min -> 2 h -> $0.24.
  EXPECT_EQ(aws.ComputeCost(small, busy), Money::FromCents(24));
  // Minute: 61 min exactly -> 0.12 * 61/60.
  PricingModel by_minute =
      aws.WithComputeGranularity(BillingGranularity::kMinute);
  EXPECT_EQ(by_minute.ComputeCost(small, busy),
            Money::FromCents(12).ScaleBy(61, 60));
  // Second: same value for a whole-minute duration.
  PricingModel by_second =
      aws.WithComputeGranularity(BillingGranularity::kSecond);
  EXPECT_EQ(by_second.ComputeCost(small, busy),
            Money::FromCents(12).ScaleBy(61, 60));
}

TEST(PricingModel, ComputeCostExactSkipsRounding) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  InstanceType small = aws.instances().Find("small").value();
  EXPECT_EQ(aws.ComputeCostExact(small, Duration::FromMinutes(30)),
            Money::FromCents(6));
  EXPECT_EQ(aws.ComputeCostExact(small, Duration::FromMinutes(30), 4),
            Money::FromCents(24));
}

TEST(PricingModel, ComputeCostZeroDurationAndCount) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  InstanceType small = aws.instances().Find("small").value();
  EXPECT_EQ(aws.ComputeCost(small, Duration::Zero()), Money::Zero());
  EXPECT_EQ(aws.ComputeCost(small, Duration::FromHours(5), 0),
            Money::Zero());
}

TEST(RoundUpToGranularity, AllUnits) {
  Duration d = Duration::FromMillis(61'001);  // 61.001 s
  EXPECT_EQ(RoundUpToGranularity(d, BillingGranularity::kSecond),
            Duration::FromSeconds(62));
  EXPECT_EQ(RoundUpToGranularity(d, BillingGranularity::kMinute),
            Duration::FromMinutes(2));
  EXPECT_EQ(RoundUpToGranularity(d, BillingGranularity::kHour),
            Duration::FromHours(1));
  EXPECT_EQ(RoundUpToGranularity(Duration::Zero(),
                                 BillingGranularity::kHour),
            Duration::Zero());
}

TEST(PricingModel, StorageBillingModes) {
  PricingModel flat_bracket =
      ProviderRegistry::Global().Model("aws-2012").value();
  PricingModel marginal =
      flat_bracket.WithStorageBilling(StorageBilling::kMarginalTiers);
  DataSize v = DataSize::FromGB(2560);
  EXPECT_EQ(flat_bracket.MonthlyStorageCost(v), Money::FromDollars(320));
  EXPECT_GT(marginal.MonthlyStorageCost(v), Money::FromDollars(320));
}

TEST(PricingModel, StorageCostProRata) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  DataSize v = DataSize::FromGB(500);
  EXPECT_EQ(aws.StorageCost(v, Months::FromMonths(12)),
            Money::FromDollars(840));
  EXPECT_EQ(aws.StorageCost(v, Months::FromMilli(500)),
            Money::FromDollars(35));
  EXPECT_EQ(aws.StorageCost(v, Months::Zero()), Money::Zero());
}

TEST(PricingModel, TransferInFreeOnAws) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  EXPECT_EQ(aws.TransferInCost(DataSize::FromTB(50)), Money::Zero());
}

TEST(Providers, IntroExampleCatalog) {
  PricingModel intro =
      ProviderRegistry::Global().Model("intro-example").value();
  EXPECT_EQ(intro.MonthlyStorageCost(DataSize::FromGB(500)),
            Money::FromDollars(50));
  EXPECT_EQ(intro.TransferOutCost(DataSize::FromTB(1)), Money::Zero());
}

TEST(Providers, BlueCloudChargesIngress) {
  PricingModel blue = ProviderRegistry::Global().Model("bluecloud").value();
  EXPECT_GT(blue.TransferInCost(DataSize::FromGB(100)), Money::Zero());
}

TEST(Providers, GigaCloudBillsByMinute) {
  PricingModel giga = ProviderRegistry::Global().Model("gigacloud").value();
  EXPECT_EQ(giga.compute_granularity(), BillingGranularity::kMinute);
}

TEST(Providers, AllProvidersWellFormed) {
  for (const PricingModel& p : AllProviders()) {
    EXPECT_FALSE(p.name().empty());
    EXPECT_FALSE(p.instances().empty());
    // Monthly storage for 1 GB must be priced (sanity: >= 0).
    EXPECT_GE(p.MonthlyStorageCost(DataSize::FromGB(1)), Money::Zero());
  }
}

// --- The registry-era billing dimensions -------------------------------------

PricingModel MeteredModel() {
  PricingModelOptions opts;
  opts.name = "metered";
  InstanceType plan{.name = "m1",
                    .price_per_hour = Money::FromCents(10),
                    .compute_units = 1.0};
  // Upfront $0.09, reserved $0.02/h vs on-demand $0.10/h:
  // 0.09 + 0.02 t < 0.10 t iff t > 1.125 h.
  plan.reserved_upfront = Money::FromCents(9);
  plan.reserved_price_per_hour = Money::FromCents(2);
  opts.instances.Add(plan);
  opts.storage_per_gb_month = TieredRate::Flat(Money::FromCents(10));
  opts.transfer_out_per_gb = TieredRate::Flat(Money::FromCents(10));
  opts.requests = RequestCharge{.price_per_10k = Money::FromDollars(1),
                                .requests_per_query = 1};
  opts.free_tier = FreeTier{.transfer_out = DataSize::FromGB(2),
                                   .storage = DataSize::FromGB(4),
                                   .requests = 5000};
  return PricingModel::Create(std::move(opts)).MoveValue();
}

TEST(PricingModel, ReservedRatePicksCheaperPlan) {
  PricingModel metered = MeteredModel();
  InstanceType m1 = metered.instances().Find("m1").value();
  // Short session: on-demand wins (1 h: $0.10 < $0.09 + $0.02).
  EXPECT_EQ(metered.ComputeCost(m1, Duration::FromHours(1)),
            Money::FromCents(10));
  // Long session: reserved wins (10 h: $0.09 + $0.20 < $1.00).
  EXPECT_EQ(metered.ComputeCost(m1, Duration::FromHours(10)),
            Money::FromCents(29));
  // Per instance: upfront paid once each.
  EXPECT_EQ(metered.ComputeCost(m1, Duration::FromHours(10), 3),
            Money::FromCents(87));
}

TEST(PricingModel, RequestCostAfterFreeAllowance) {
  PricingModel metered = MeteredModel();
  EXPECT_EQ(metered.RequestCost(0), Money::Zero());
  EXPECT_EQ(metered.RequestCost(5000), Money::Zero());  // All free.
  // 15k requests: 10k billable at $1/10k.
  EXPECT_EQ(metered.RequestCost(15'000), Money::FromDollars(1));
  // Unbilled CSPs charge nothing regardless.
  EXPECT_EQ(
      ProviderRegistry::Global().Model("aws-2012")->RequestCost(1'000'000),
      Money::Zero());
}

TEST(PricingModel, FreeTierWaivesBottomOfTransferSchedule) {
  PricingModel metered = MeteredModel();
  EXPECT_EQ(metered.TransferOutCost(DataSize::FromGB(1)), Money::Zero());
  EXPECT_EQ(metered.TransferOutCost(DataSize::FromGB(2)), Money::Zero());
  // 5 GB: 2 free, 3 billed at $0.10.
  EXPECT_EQ(metered.TransferOutCost(DataSize::FromGB(5)),
            Money::FromCents(30));
}

TEST(PricingModel, FreeTierWaivesStorageUnderBothSemantics) {
  PricingModel flat = MeteredModel();  // kFlatBracket default.
  EXPECT_EQ(flat.MonthlyStorageCost(DataSize::FromGB(3)), Money::Zero());
  EXPECT_EQ(flat.MonthlyStorageCost(DataSize::FromGB(10)),
            Money::FromCents(60));  // (10-4) x $0.10 at the flat rate.
  PricingModel marginal =
      flat.WithStorageBilling(StorageBilling::kMarginalTiers);
  EXPECT_EQ(marginal.MonthlyStorageCost(DataSize::FromGB(10)),
            Money::FromCents(60));  // Flat schedule: same arithmetic.
}

TEST(Providers, NimbusExercisesNewDimensions) {
  Result<PricingModel> nimbus =
      ProviderRegistry::Global().Model("nimbus");
  ASSERT_TRUE(nimbus.ok());
  EXPECT_TRUE(nimbus->request_charge().is_billed());
  EXPECT_FALSE(nimbus->free_tier().is_empty());
  InstanceType n1 = nimbus->instances().Find("n1").value();
  EXPECT_TRUE(n1.has_reserved_rate());
  // The old API could not express any of these: PricingModelOptions had
  // no request, reserved, or free-tier fields before the spec redesign.
  Duration session = Duration::FromHours(3);
  EXPECT_LT(nimbus->ComputeCost(n1, session),
            n1.price_per_hour * 3);  // Reserved plan kicked in.
}

// --- BillingMeter ------------------------------------------------------------
TEST(BillingMeter, ItemizedInvoiceTotals) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  InstanceType small = aws.instances().Find("small").value();
  BillingMeter meter(aws);

  Money c1 = meter.RecordCompute("workload", small,
                                 Duration::FromHours(50), 2);
  Money s1 = meter.RecordStorage("dataset", DataSize::FromGB(500),
                                 Months::FromMonths(1));
  Money t1 = meter.RecordTransferOut("results", DataSize::FromGB(10));

  EXPECT_EQ(c1, Money::FromDollars(12));
  EXPECT_EQ(s1, Money::FromDollars(70));
  EXPECT_EQ(t1, Money::FromMicros(1'080'000));

  const Invoice& invoice = meter.invoice();
  EXPECT_EQ(invoice.items.size(), 3u);
  EXPECT_EQ(invoice.compute_total, c1);
  EXPECT_EQ(invoice.storage_total, s1);
  EXPECT_EQ(invoice.transfer_total, t1);
  EXPECT_EQ(invoice.grand_total(), c1 + s1 + t1);
}

TEST(BillingMeter, TransferTiersApplyAcrossEvents) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  BillingMeter meter(aws);
  // First GB free even when split across two events.
  Money first = meter.RecordTransferOut("r1", DataSize::FromMB(512));
  Money second = meter.RecordTransferOut("r2", DataSize::FromMB(512));
  Money third = meter.RecordTransferOut("r3", DataSize::FromGB(1));
  EXPECT_EQ(first, Money::Zero());
  EXPECT_EQ(second, Money::Zero());
  EXPECT_EQ(third, Money::FromMicros(120'000));
  EXPECT_EQ(meter.transferred_out(), DataSize::FromGB(2));
}

TEST(BillingMeter, InvoicePrintContainsTotals) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  BillingMeter meter(aws);
  meter.RecordStorage("data", DataSize::FromGB(500),
                      Months::FromMonths(1));
  std::ostringstream os;
  meter.invoice().Print(os);
  EXPECT_NE(os.str().find("$70.00"), std::string::npos);
  EXPECT_NE(os.str().find("TOTAL"), std::string::npos);
}

}  // namespace
}  // namespace cloudview
