#include "catalog/architecture.h"

#include <utility>

#include "common/str_format.h"

namespace cloudview {

namespace {

/// Correlated whole-AZ outage odds per zone (ppm); spread over more
/// zones the way independent replica failures are.
constexpr int64_t kZoneOutagePpm = 500;

/// u^n / 1e6^(n-1) in exact integer arithmetic: the ppm odds of `n`
/// independent events of `u` ppm coinciding. Floored at 1 — the model
/// never claims perfect availability. `u` < 1e6 keeps every
/// intermediate below 1e12, well inside int64.
int64_t CoincidentPpm(int64_t u, int64_t n) {
  int64_t acc = u;
  for (int64_t i = 1; i < n; ++i) acc = acc * u / 1'000'000;
  return acc > 0 ? acc : 1;
}

/// The hourly rate a group's plan bills, in micro-dollars. Reserved
/// groups return the on-demand rate: the sheet's cheaper-of pair is
/// applied inside PricingModel::ComputeCost, so the architecture layer
/// must not discount it a second time.
int64_t PlanRateMicros(PurchasePlan plan, const InstanceType& instance) {
  return plan == PurchasePlan::kSpot
             ? instance.spot_price_per_hour.micros()
             : instance.price_per_hour.micros();
}

}  // namespace

Status ArchitectureSpec::Validate() const {
  if (name.empty()) {
    return Status::InvalidArgument("architecture needs a name");
  }
  for (const NodeGroupSpec& group : groups) {
    if (group.name.empty()) {
      return Status::InvalidArgument(StrFormat(
          "architecture '%s': node group needs a name", name.c_str()));
    }
    if (group.replicas < 1 || group.replicas > 1024) {
      return Status::InvalidArgument(StrFormat(
          "architecture '%s', group '%s': replicas must lie in "
          "[1, 1024]",
          name.c_str(), group.name.c_str()));
    }
    if (group.zones < 1 || group.zones > group.replicas) {
      return Status::InvalidArgument(StrFormat(
          "architecture '%s', group '%s': zones must lie in "
          "[1, replicas]",
          name.c_str(), group.name.c_str()));
    }
  }
  return Status::OK();
}

Result<ArchitectureModel> ArchitectureSpec::Lower(
    const PricingModel& pricing, const InstanceType& instance) const {
  CV_RETURN_IF_ERROR(Validate());

  std::vector<NodeGroupSpec> resolved = groups;
  if (resolved.empty()) resolved.push_back(NodeGroupSpec{});

  const int64_t on_demand = instance.price_per_hour.micros();
  int64_t total_replicas = 0;
  int64_t fleet_rate = 0;  // sum of replicas x plan rate, micros
  int64_t spot_rate = 0;   // the spot-plan share of fleet_rate
  int64_t cross_az = 0;
  // System availability: unavailable only when every group is.
  int64_t system_unavail_ppm = -1;
  for (const NodeGroupSpec& group : resolved) {
    switch (group.plan) {
      case PurchasePlan::kOnDemand:
        break;
      case PurchasePlan::kReserved:
        if (!instance.has_reserved_rate()) {
          return Status::InvalidArgument(StrFormat(
              "architecture '%s', group '%s': instance '%s' on sheet "
              "'%s' carries no reserved rate",
              name.c_str(), group.name.c_str(), instance.name.c_str(),
              pricing.name().c_str()));
        }
        break;
      case PurchasePlan::kSpot:
        if (!instance.has_spot_rate()) {
          return Status::InvalidArgument(StrFormat(
              "architecture '%s', group '%s': instance '%s' on sheet "
              "'%s' carries no spot rate",
              name.c_str(), group.name.c_str(), instance.name.c_str(),
              pricing.name().c_str()));
        }
        break;
    }
    const int64_t rate = PlanRateMicros(group.plan, instance);
    total_replicas += group.replicas;
    fleet_rate += group.replicas * rate;
    if (group.plan == PurchasePlan::kSpot) {
      spot_rate += group.replicas * rate;
    }
    cross_az += group.zones - 1;

    int64_t node_ppm = ArchitectureModel::kSingleNodeUnavailabilityPpm;
    if (group.plan == PurchasePlan::kSpot) {
      node_ppm += pricing.spot_interruption_ppm();
    }
    if (node_ppm > 999'999) node_ppm = 999'999;
    const int64_t group_ppm = CoincidentPpm(node_ppm, group.replicas) +
                              CoincidentPpm(kZoneOutagePpm, group.zones);
    system_unavail_ppm =
        system_unavail_ppm < 0
            ? group_ppm
            : system_unavail_ppm * group_ppm / 1'000'000;
  }
  if (system_unavail_ppm < 1) system_unavail_ppm = 1;
  if (system_unavail_ppm > 999'999) system_unavail_ppm = 999'999;

  ArchitectureModel model;
  model.name = name;
  if (on_demand > 0 && fleet_rate > 0) {
    // Processing: blended fleet rate over on-demand; builds: the full
    // fleet rate (every replica builds its own copy).
    model.compute_num = fleet_rate;
    model.compute_den = total_replicas * on_demand;
    model.fanout_num = fleet_rate;
    model.fanout_den = on_demand;
  } else {
    model.compute_num = model.compute_den = 1;
    model.fanout_num = total_replicas;
    model.fanout_den = 1;
  }
  switch (durability) {
    case DurabilityTier::kLocal:
      model.storage_num = total_replicas;
      break;
    case DurabilityTier::kZonal:
      model.storage_num = total_replicas + 1;
      break;
    case DurabilityTier::kRegional:
      model.storage_num = total_replicas + 2;
      break;
  }
  model.storage_den = 1;
  const int64_t ppm = pricing.spot_interruption_ppm();
  if (spot_rate > 0 && ppm > 0) {
    // Expected re-runs per completed build: ppm / (1e6 - ppm), scaled
    // by the spot share of the build fleet's spend.
    model.interruption_num = ppm * spot_rate;
    model.interruption_den = (1'000'000 - ppm) * fleet_rate;
  }
  model.cross_az_copies = cross_az;
  model.unavailability_ppm = system_unavail_ppm;
  return model;
}

std::vector<ArchitectureSpec> DefaultArchitectureRoster() {
  std::vector<ArchitectureSpec> roster;
  roster.push_back(ArchitectureSpec{.name = "single-az-on-demand"});
  roster.push_back(ArchitectureSpec{
      .name = "2az-replicated",
      .groups = {{.name = "primary", .replicas = 2, .zones = 2}},
      .durability = DurabilityTier::kZonal});
  roster.push_back(ArchitectureSpec{
      .name = "spot-single-az",
      .groups = {{.name = "primary",
                  .replicas = 1,
                  .zones = 1,
                  .plan = PurchasePlan::kSpot}}});
  roster.push_back(ArchitectureSpec{
      .name = "spot-2az",
      .groups = {{.name = "primary",
                  .replicas = 2,
                  .zones = 2,
                  .plan = PurchasePlan::kSpot}},
      .durability = DurabilityTier::kZonal});
  roster.push_back(ArchitectureSpec{
      .name = "3az-ha",
      .groups = {{.name = "primary",
                  .replicas = 3,
                  .zones = 3,
                  .plan = PurchasePlan::kReserved}},
      .durability = DurabilityTier::kRegional});
  return roster;
}

}  // namespace cloudview
