// The built-in provider sheets, declared as PriceSheetSpecs and
// self-registered into the global ProviderRegistry.

#include "pricing/providers.h"

#include "pricing/price_sheet_spec.h"
#include "pricing/provider_registry.h"

namespace cloudview {

namespace {

PriceSheetSpec AwsSpec() {
  PriceSheetSpec spec;
  spec.name = "aws-2012";
  spec.description = "the paper's AWS sheet (Tables 2-4)";
  spec.instances = {
      {.name = "micro",
       .price_per_hour = Money::FromCents(3),
       .compute_units = 0.5,
       .ram = DataSize::FromMB(613),
       .local_storage = DataSize::Zero()},
      {.name = "small",
       .price_per_hour = Money::FromCents(12),
       .compute_units = 1.0,
       .ram = DataSize::FromMB(1740),
       .local_storage = DataSize::FromGB(160),
       .spot_price_per_hour = Money::FromMicros(37'000)},  // ~0.31x
      {.name = "large",
       .price_per_hour = Money::FromCents(48),
       .compute_units = 4.0,
       .ram = DataSize::FromMB(7680),
       .local_storage = DataSize::FromGB(850),
       .spot_price_per_hour = Money::FromMicros(148'000)},
      {.name = "xlarge",
       .price_per_hour = Money::FromCents(96),
       .compute_units = 8.0,
       .ram = DataSize::FromMB(15360),
       .local_storage = DataSize::FromGB(1690),
       .spot_price_per_hour = Money::FromMicros(296'000)},
  };
  // Table 4, cumulative bounds. The final rate extrapolates the "...".
  spec.storage_per_gb_month = {
      {DataSize::FromTB(1), Money::FromMicros(140'000)},     // $0.140
      {DataSize::FromTB(50), Money::FromMicros(125'000)},    // $0.125
      {DataSize::FromTB(500), Money::FromMicros(110'000)},   // $0.110
      {DataSize::Zero(), Money::FromMicros(95'000)},         // $0.095
  };
  // Table 3, cumulative bounds: 1 GB free, then 0.12 / 0.09 / 0.07 (/0.05).
  spec.transfer_out_per_gb = {
      {DataSize::FromGB(1), Money::Zero()},
      {DataSize::FromTB(10), Money::FromMicros(120'000)},
      {DataSize::FromTB(50), Money::FromMicros(90'000)},
      {DataSize::FromTB(150), Money::FromMicros(70'000)},
      {DataSize::Zero(), Money::FromMicros(50'000)},
  };
  // Spot markets and multi-AZ replication post-date the paper's tables;
  // rates follow the 2012-era EC2 spot discount (~70% off on-demand)
  // with a region-internal $0.01/GB AZ-crossing charge.
  spec.inter_az_per_gb = {{DataSize::Zero(), Money::FromMicros(10'000)}};
  spec.spot_interruption_ppm = 50'000;  // ~5% of billing windows
  spec.compute_granularity = BillingGranularity::kHour;
  spec.storage_billing = StorageBilling::kFlatBracket;
  return spec;
}

PriceSheetSpec IntroExampleSpec() {
  PriceSheetSpec spec;
  spec.name = "intro-example";
  spec.description = "the paper's introductory fictitious CSP";
  spec.instances = {
      {.name = "standard",
       .price_per_hour = Money::FromCents(24),
       .compute_units = 2.0,
       .ram = DataSize::FromGB(4),
       .local_storage = DataSize::FromGB(320),
       .spot_price_per_hour = Money::FromCents(8)},
  };
  spec.storage_per_gb_month = {{DataSize::Zero(), Money::FromCents(10)}};
  spec.inter_az_per_gb = {{DataSize::Zero(), Money::FromMicros(20'000)}};
  spec.spot_interruption_ppm = 30'000;
  spec.compute_granularity = BillingGranularity::kHour;
  spec.storage_billing = StorageBilling::kFlatBracket;
  return spec;
}

PriceSheetSpec GigaCloudSpec() {
  PriceSheetSpec spec;
  spec.name = "gigacloud";
  spec.description = "fictional per-minute-billing CSP";
  spec.instances = {
      {.name = "g-micro",
       .price_per_hour = Money::FromCents(2),
       .compute_units = 0.4,
       .ram = DataSize::FromMB(512),
       .local_storage = DataSize::Zero()},
      {.name = "g-small",
       .price_per_hour = Money::FromCents(10),
       .compute_units = 1.1,
       .ram = DataSize::FromGB(2),
       .local_storage = DataSize::FromGB(120),
       .spot_price_per_hour = Money::FromCents(3)},
      {.name = "g-large",
       .price_per_hour = Money::FromCents(42),
       .compute_units = 4.4,
       .ram = DataSize::FromGB(8),
       .local_storage = DataSize::FromGB(500),
       .spot_price_per_hour = Money::FromCents(13)},
  };
  spec.storage_per_gb_month = {{DataSize::Zero(), Money::FromCents(12)}};
  spec.transfer_out_per_gb = {
      {DataSize::FromGB(1), Money::Zero()},
      {DataSize::FromTB(10), Money::FromMicros(110'000)},
      {DataSize::Zero(), Money::FromMicros(80'000)},
  };
  // Deep preemptible discount paired with aggressive reclamation.
  spec.inter_az_per_gb = {
      {DataSize::FromTB(1), Money::FromMicros(15'000)},
      {DataSize::Zero(), Money::FromMicros(10'000)},
  };
  spec.spot_interruption_ppm = 80'000;
  spec.compute_granularity = BillingGranularity::kMinute;
  spec.storage_billing = StorageBilling::kMarginalTiers;
  return spec;
}

PriceSheetSpec BlueCloudSpec() {
  PriceSheetSpec spec;
  spec.name = "bluecloud";
  spec.description = "fictional CSP with non-free ingress";
  spec.instances = {
      {.name = "b1",
       .price_per_hour = Money::FromCents(11),
       .compute_units = 1.0,
       .ram = DataSize::FromMB(1536),
       .local_storage = DataSize::FromGB(128),
       .spot_price_per_hour = Money::FromCents(4)},
      {.name = "b4",
       .price_per_hour = Money::FromCents(44),
       .compute_units = 4.0,
       .ram = DataSize::FromGB(6),
       .local_storage = DataSize::FromGB(512),
       .spot_price_per_hour = Money::FromCents(15)},
  };
  spec.storage_per_gb_month = {
      {DataSize::FromTB(1), Money::FromMicros(130'000)},
      {DataSize::FromTB(50), Money::FromMicros(120'000)},
      {DataSize::Zero(), Money::FromMicros(100'000)},
  };
  spec.transfer_out_per_gb = {{DataSize::Zero(), Money::FromMicros(100'000)}};
  // BlueCloud charges for ingress too: exercises Formula 2's input terms.
  spec.transfer_in_per_gb = {{DataSize::Zero(), Money::FromMicros(50'000)}};
  spec.inter_az_per_gb = {{DataSize::Zero(), Money::FromMicros(20'000)}};
  spec.spot_interruption_ppm = 40'000;
  spec.compute_granularity = BillingGranularity::kHour;
  spec.storage_billing = StorageBilling::kMarginalTiers;
  return spec;
}

// The billing dimensions the pre-registry API could not express, all in
// one sheet: per-request I/O charges, reserved/on-demand rate pairs with
// an upfront component, and a free tier (see DESIGN.md §7).
PriceSheetSpec NimbusSpec() {
  PriceSheetSpec spec;
  spec.name = "nimbus";
  spec.description =
      "fictional metered CSP: per-request charges, reserved rates, "
      "free tier";
  spec.instances = {
      {.name = "n1",
       .price_per_hour = Money::FromCents(13),
       .compute_units = 1.0,
       .ram = DataSize::FromGB(2),
       .local_storage = DataSize::FromGB(100),
       // Break-even vs on-demand at ~1.1 h: short sessions stay
       // on-demand, the long no-view baseline flips to reserved.
       .reserved = ReservedRateSpec{.upfront = Money::FromCents(10),
                                    .price_per_hour = Money::FromCents(4)},
       .spot_price_per_hour = Money::FromCents(5)},
      {.name = "n4",
       .price_per_hour = Money::FromCents(50),
       .compute_units = 4.0,
       .ram = DataSize::FromGB(8),
       .local_storage = DataSize::FromGB(400),
       .reserved = ReservedRateSpec{.upfront = Money::FromCents(40),
                                    .price_per_hour = Money::FromCents(16)},
       .spot_price_per_hour = Money::FromCents(18)},
  };
  spec.storage_per_gb_month = {{DataSize::Zero(), Money::FromCents(11)}};
  // No zero-rate bottom tier: the free transfer allowance below plays
  // that role.
  spec.transfer_out_per_gb = {{DataSize::Zero(), Money::FromMicros(100'000)}};
  spec.inter_az_per_gb = {{DataSize::Zero(), Money::FromMicros(12'000)}};
  spec.spot_interruption_ppm = 60'000;
  spec.compute_granularity = BillingGranularity::kMinute;
  spec.storage_billing = StorageBilling::kMarginalTiers;
  spec.requests = RequestCharge{.price_per_10k = Money::FromCents(50),
                                .requests_per_query = 400};
  spec.free_tier = FreeTier{.transfer_out = DataSize::FromGB(2),
                            .storage = DataSize::FromGB(5),
                            .requests = 1000};
  return spec;
}

CLOUDVIEW_REGISTER_PROVIDER(aws_2012, AwsSpec())
CLOUDVIEW_REGISTER_PROVIDER(intro_example, IntroExampleSpec())
CLOUDVIEW_REGISTER_PROVIDER(gigacloud, GigaCloudSpec())
CLOUDVIEW_REGISTER_PROVIDER(bluecloud, BlueCloudSpec())
CLOUDVIEW_REGISTER_PROVIDER(nimbus, NimbusSpec())

}  // namespace

std::vector<PricingModel> AllProviders() {
  return ProviderRegistry::Global().AllModels();
}

}  // namespace cloudview
