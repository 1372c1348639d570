// ProviderRegistry: the name-keyed provider seam, mirroring the solver
// registry (core/optimizer/solver.h).
//
//   PriceSheetSpec    — the declarative description of one CSP
//                       (pricing/price_sheet_spec.h).
//   ProviderRegistry  — name -> (spec, lowered model); self-registration
//                       via CLOUDVIEW_REGISTER_PROVIDER keeps the set
//                       open: built-ins (pricing/providers.cc) and
//                       downstream CSPs register the same way.
//
// Consumers select providers by name (ScenarioConfig::provider,
// compare-providers requests, benches, examples) and never link
// against a specific sheet. See DESIGN.md §7.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "pricing/price_sheet_spec.h"
#include "pricing/pricing_model.h"

namespace cloudview {

/// \brief Name-keyed provider registry. Registration validates and
/// lowers the spec once; lookups hand out copies of the immutable model.
class ProviderRegistry {
 public:
  /// \brief The process-wide registry the built-ins register into.
  static ProviderRegistry& Global();

  /// \brief Validates, lowers and registers `spec` under spec.name.
  /// InvalidArgument when the sheet does not lower; AlreadyExists when
  /// the name is taken.
  Status Register(PriceSheetSpec spec);

  /// \brief The registered declarative sheet; NotFound lists what exists.
  Result<const PriceSheetSpec*> FindSpec(std::string_view name) const;

  /// \brief A copy of the lowered pricing model for `name`.
  Result<PricingModel> Model(std::string_view name) const;

  bool Contains(std::string_view name) const;

  /// \brief Registered names, sorted.
  std::vector<std::string> Names() const;

  /// \brief Lowered models of every registered provider, in Names()
  /// order (sweeps over CSPs).
  std::vector<PricingModel> AllModels() const;

 private:
  struct Entry {
    PriceSheetSpec spec;
    PricingModel model;
  };

  std::vector<Entry> entries_;
};

namespace internal {
/// \brief Static registrar behind CLOUDVIEW_REGISTER_PROVIDER.
struct ProviderRegistrar {
  explicit ProviderRegistrar(PriceSheetSpec spec);
};
}  // namespace internal

/// \brief Registers the PriceSheetSpec produced by `spec_expr` into the
/// global registry at static-initialization time. `id` is a unique C++
/// identifier for the registrar variable. The build links the library as
/// objects, so registrars are never dead-stripped; downstream code (and
/// tests) place this in any linked translation unit to add a CSP without
/// touching the library.
#define CLOUDVIEW_REGISTER_PROVIDER(id, spec_expr)               \
  static const ::cloudview::internal::ProviderRegistrar          \
      cv_provider_registrar_##id{(spec_expr)};

}  // namespace cloudview

