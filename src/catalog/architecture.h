// Deployment-architecture enumeration (DESIGN.md §15): how many
// replicas of the cluster run, across how many availability zones, at
// which durability tier, and under which purchase plan — the knobs a
// real deployment turns alongside the view set.
//
// Mirrors the PriceSheetSpec -> PricingModel seam: an ArchitectureSpec
// is plain brace-initializable data, Validate() checks it structurally,
// and Lower() resolves it against one (PricingModel, InstanceType) pair
// into an ArchitectureModel — exact integer rationals the cost paths
// apply with Money::ScaleBy, so the monetary fast path stays
// float-free and allocation-free. The identity model (single replica,
// one AZ, on-demand, local durability) reproduces every legacy bill
// bit-for-bit.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/data_size.h"
#include "common/result.h"
#include "common/status.h"
#include "pricing/instance_type.h"
#include "pricing/pricing_model.h"

namespace cloudview {

/// \brief How a node group's capacity is purchased.
enum class PurchasePlan {
  kOnDemand,
  /// Bills the sheet's reserved cheaper-of pair (requires the instance
  /// to carry one).
  kReserved,
  /// Bills the spot rate (requires one) and accrues the sheet's
  /// interruption expectation as re-run compute on builds.
  kSpot,
};

/// \brief How many durable copies of stored bytes the architecture
/// keeps beyond the per-replica working copies.
enum class DurabilityTier {
  /// Replica-local storage only.
  kLocal,
  /// One extra zonal copy.
  kZonal,
  /// Two extra copies spread across the region.
  kRegional,
};

/// \brief One homogeneous group of cluster replicas.
struct NodeGroupSpec {
  std::string name = "primary";
  /// Full copies of the cluster this group runs (>= 1).
  int64_t replicas = 1;
  /// Availability zones the replicas spread over (1 <= zones <=
  /// replicas).
  int64_t zones = 1;
  PurchasePlan plan = PurchasePlan::kOnDemand;

  friend bool operator==(const NodeGroupSpec&, const NodeGroupSpec&) = default;
};

/// \brief A deployment architecture, before price resolution. Empty
/// `groups` means one default single-replica on-demand group.
struct ArchitectureSpec {
  std::string name;
  std::vector<NodeGroupSpec> groups;
  DurabilityTier durability = DurabilityTier::kLocal;

  /// \brief Structural validation (names, replica/zone counts); plan
  /// availability is checked against the sheet at Lower() time.
  Status Validate() const;

  /// \brief Validates and lowers against one priced instance into the
  /// multipliers the cost paths consume.
  Result<struct ArchitectureModel> Lower(const PricingModel& pricing,
                                         const InstanceType& instance) const;

  friend bool operator==(const ArchitectureSpec&,
                         const ArchitectureSpec&) = default;
};

/// \brief A lowered architecture: exact integer rationals applied to
/// the legacy single-cluster bill. Default-constructed = the identity
/// architecture (all ratios 1, no new cost terms), under which every
/// cost path is bit-identical to the pre-architecture code.
struct ArchitectureModel {
  std::string name = "single-az-on-demand";
  /// Query-processing bill multiplier: the fleet's blended hourly rate
  /// over the on-demand rate (queries are load-balanced across
  /// replicas, so total busy time does not grow with replication).
  int64_t compute_num = 1;
  int64_t compute_den = 1;
  /// Materialization/maintenance bill multiplier: build work fans out
  /// to every replica, each billed at its group's plan rate.
  int64_t fanout_num = 1;
  int64_t fanout_den = 1;
  /// Stored-byte multiplier: replica working copies plus durability
  /// copies.
  int64_t storage_num = 1;
  int64_t storage_den = 1;
  /// Expected spot re-run fraction of the (scaled) build bill:
  /// interruption odds weighted by the spot share of fan-out compute.
  /// Zero for spot-free architectures.
  int64_t interruption_num = 0;
  int64_t interruption_den = 1;
  /// AZ-boundary crossings per written byte (zone count beyond the
  /// first, summed over groups); billed via PricingModel::InterAzCost.
  int64_t cross_az_copies = 0;
  /// Expected unavailable fraction in parts-per-million — the fourth
  /// frontier axis. 0 is unattainable-perfect; the identity
  /// architecture scores kSingleNodeUnavailabilityPpm.
  int64_t unavailability_ppm = 0;

  /// \brief Per-node steady-state unavailability assumed by the
  /// availability model (~0.1%, a three-nines single node).
  static constexpr int64_t kSingleNodeUnavailabilityPpm = 1000;

  /// \brief True when every ratio is 1 and no new cost term applies —
  /// the cost paths skip all architecture math.
  bool is_identity() const {
    return compute_num == compute_den && fanout_num == fanout_den &&
           storage_num == storage_den && interruption_num == 0 &&
           cross_az_copies == 0;
  }
};

/// \brief Bytes whose writes the architecture replicates across AZ
/// boundaries: the initial dataset load plus every view build and
/// maintenance rewrite. Shared by the exact and fast cost paths so the
/// two stay bit-identical.
inline DataSize ReplicatedWriteBytes(DataSize initial_dataset,
                                     DataSize view_bytes,
                                     int64_t maintenance_cycles) {
  return initial_dataset +
         DataSize::FromBytes(view_bytes.bytes() *
                             (1 + maintenance_cycles));
}

/// \brief The stock roster SolveJoint and the "arch-sweep" solver
/// enumerate when ObjectiveSpec::architectures is empty: single-AZ
/// on-demand (the identity), a 2-AZ replicated pair, single-AZ spot,
/// 2-AZ spot, and a 3-AZ reserved HA tier.
std::vector<ArchitectureSpec> DefaultArchitectureRoster();

}  // namespace cloudview
