// CloudCostModel: the paper's full cost models, Sections 3 and 4.
//
// Without views (Section 3):  C = Cc + Cs + Ct               (Formula 1)
// With views (Section 4):     Cc = CprocessingQ + CmaintenanceV
//                                  + CmaterializationV       (Formula 6)
//   - transfer cost is unchanged (views are created cloud-side, §4.1);
//   - storage cost additionally covers the views' duplicated bytes for
//     the whole storage period (§4.3).

#pragma once

#include <cstdint>

#include "catalog/architecture.h"
#include "common/months.h"
#include "core/cost/compute_cost.h"
#include "core/cost/cost_breakdown.h"
#include "core/cost/cost_inputs.h"
#include "core/cost/storage_cost.h"
#include "core/cost/storage_timeline.h"
#include "core/cost/transfer_cost.h"
#include "pricing/instance_type.h"
#include "pricing/pricing_model.h"

namespace cloudview {

/// \brief The fixed context a cost evaluation runs in: the rented
/// cluster, the storage period and its timeline, and ingress volumes.
struct DeploymentSpec {
  /// The rented instance type (paper: identical instances IC).
  InstanceType instance;
  /// nbIC: how many instances run the workload.
  int64_t nb_instances = 1;
  /// Length of the billed storage period.
  Months storage_period = Months::FromMonths(1);
  /// Base-data storage events (initial dataset at month 0, inserts later).
  StorageTimeline base_storage;
  /// Ingress volumes for CSPs that bill input transfers (Formula 2).
  IngressVolumes ingress;
  /// Maintenance rounds during the period (paper: nightly maintenance;
  /// its worked example uses a single cycle).
  int64_t maintenance_cycles = 1;
  /// When true, all compute (materialize + query + maintain) is billed
  /// as ONE rental session: the busy-time total is rounded up to the
  /// billing granularity once, not per activity. The paper's worked
  /// examples round per activity (default false); its Section 6 runs are
  /// single sessions (see EXPERIMENTS.md). The gap to the exact
  /// on-demand per-activity split — a rounding surcharge, or a reserved-
  /// plan discount (negative) on sheets with reserved rates — is
  /// reported separately in CostBreakdown::session_rounding.
  bool single_compute_session = false;
  /// Lowered deployment architecture (catalog/architecture.h). The
  /// default identity model reproduces the paper's single-cluster bill
  /// bit-for-bit; non-identity models scale compute/storage, add spot
  /// interruption expectation and inter-AZ egress, and are rejected
  /// alongside single_compute_session (a spot fleet cannot be one
  /// uninterrupted rental session).
  ArchitectureModel architecture;
};

/// \brief Evaluates complete scenario costs against one PricingModel.
class CloudCostModel {
 public:
  /// \brief Keeps a reference; `pricing` must outlive the model.
  explicit CloudCostModel(const PricingModel& pricing)
      : pricing_(&pricing),
        transfer_(pricing),
        compute_(pricing),
        storage_(pricing) {}

  /// \brief Section 3 (no materialized views): Formula 1 from
  /// Formulas 3, 4 and 5.
  Result<CostBreakdown> CostWithoutViews(
      const WorkloadCostInput& workload, const DeploymentSpec& spec) const;

  /// \brief Section 4 (with views): the workload input must already carry
  /// the with-view processing times t_iV; `views` carries Formulas 7/11
  /// totals and the duplicated bytes (stored from month 0 for the whole
  /// period).
  Result<CostBreakdown> CostWithViews(const WorkloadCostInput& workload,
                                      const ViewSetCostInput& views,
                                      const DeploymentSpec& spec) const;

  const TransferCostModel& transfer() const { return transfer_; }
  const ComputeCostModel& compute() const { return compute_; }
  const StorageCostModel& storage() const { return storage_; }
  const PricingModel& pricing() const { return *pricing_; }

 private:
  /// Lowers an identity-architecture bill onto `arch` (DESIGN.md
  /// §15.2): compute scales by the fleet rate, builds and maintenance
  /// by the fan-out, the interruption expectation re-runs that
  /// build-and-maintain work, storage scales by the replica ratio, and
  /// `replicated_write_bytes` pay inter-AZ egress once per crossing.
  /// The one architecture bill both Cost* methods call, each with its
  /// own written bytes; a no-op under the identity architecture.
  /// SelectionEvaluator::FastTotalCost folds the same ScaleBy chains
  /// into its memoized bills — keep the two in lockstep, the property
  /// suite pins their bit-equality.
  void ApplyArchitecture(const ArchitectureModel& arch,
                         DataSize replicated_write_bytes,
                         CostBreakdown& breakdown) const;

  const PricingModel* pricing_;
  TransferCostModel transfer_;
  ComputeCostModel compute_;
  StorageCostModel storage_;
};

}  // namespace cloudview

