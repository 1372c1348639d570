// Ready-made provider sheets, served through the ProviderRegistry.
//
// The built-in catalogs are declared as PriceSheetSpecs in providers.cc
// and self-register under these names:
//
//   "aws-2012"      — the paper's Tables 2-4, verbatim: EC2 micro
//                     $0.03/h, small $0.12/h, large $0.48/h, xlarge
//                     $0.96/h; bandwidth out first 1 GB free, then
//                     $0.12/GB up to 10 TB, $0.09/GB for the next 40 TB,
//                     $0.07/GB for the next 100 TB (then $0.05/GB, our
//                     extrapolation of the paper's "..."); storage
//                     $0.14/GB-month for the first TB, $0.125 for the
//                     next 49 TB, $0.11 for the next 450 TB (then
//                     $0.095, extrapolated); free ingress; hour-
//                     granularity compute; flat-bracket storage (the
//                     paper's Formula 5 reading — switchable via
//                     WithStorageBilling).
//   "intro-example" — the fictitious CSP of the paper's introduction:
//                     storage $0.10/GB-month, one "standard" instance at
//                     $0.24/h, free transfer (the intro's $62 vs $64.6).
//   "gigacloud"     — fictional per-minute-billing CSP: cheaper small
//                     instances, flat $0.12/GB-month storage, slightly
//                     cheaper egress.
//   "bluecloud"     — fictional hour-billed CSP with non-free ingress
//                     (exercises the Formula-2 ingress terms).
//   "nimbus"        — fictional metered CSP exercising the extensions
//                     the old factory API could not express: per-request
//                     I/O charges, reserved/on-demand rate pairs with an
//                     upfront component, and a free tier.
//
// All but "aws-2012" are *fictional*, used for the paper's "include
// pricing models from several CSPs" future-work item (Section 8): they
// stress different corners of the model space without claiming to
// reproduce any real price sheet.
//
// Look a sheet up with ProviderRegistry::Global().Model(name).

#pragma once

#include <vector>

#include "pricing/pricing_model.h"
#include "pricing/provider_registry.h"

namespace cloudview {

/// \brief All registered catalogs, in sorted-name order (sweeps over
/// CSPs). Includes providers registered by downstream code.
std::vector<PricingModel> AllProviders();

}  // namespace cloudview

