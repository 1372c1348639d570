#include "core/cost/cloud_cost_model.h"

namespace cloudview {

namespace {

Status RejectSingleSessionArchitecture(const DeploymentSpec& spec) {
  if (spec.single_compute_session && !spec.architecture.is_identity()) {
    return Status::InvalidArgument(
        "single_compute_session cannot be billed under a non-identity "
        "deployment architecture ('" +
        spec.architecture.name +
        "'): a replicated or spot fleet is not one rental session");
  }
  return Status::OK();
}

}  // namespace

void CloudCostModel::ApplyArchitecture(const ArchitectureModel& arch,
                                       DataSize replicated_write_bytes,
                                       CostBreakdown& breakdown) const {
  if (arch.is_identity()) return;
  breakdown.processing =
      breakdown.processing.ScaleBy(arch.compute_num, arch.compute_den);
  breakdown.materialization =
      breakdown.materialization.ScaleBy(arch.fanout_num, arch.fanout_den);
  breakdown.maintenance =
      breakdown.maintenance.ScaleBy(arch.fanout_num, arch.fanout_den);
  breakdown.interruption =
      (breakdown.materialization + breakdown.maintenance)
          .ScaleBy(arch.interruption_num, arch.interruption_den);
  breakdown.storage =
      breakdown.storage.ScaleBy(arch.storage_num, arch.storage_den);
  if (arch.cross_az_copies > 0) {
    breakdown.inter_az = pricing_->InterAzCost(DataSize::FromBytes(
        replicated_write_bytes.bytes() * arch.cross_az_copies));
  }
}

Result<CostBreakdown> CloudCostModel::CostWithoutViews(
    const WorkloadCostInput& workload, const DeploymentSpec& spec) const {
  CV_RETURN_IF_ERROR(RejectSingleSessionArchitecture(spec));
  CostBreakdown breakdown;
  breakdown.processing =
      compute_.ProcessingCost(workload, spec.instance, spec.nb_instances);
  if (spec.single_compute_session) {
    // One rental session: exact charge plus a single rounding surcharge.
    Duration busy = workload.TotalProcessingTime();
    Money exact = pricing_->ComputeCostExact(spec.instance, busy,
                                             spec.nb_instances);
    Money billed =
        pricing_->ComputeCost(spec.instance, busy, spec.nb_instances);
    breakdown.processing = exact;
    breakdown.session_rounding = billed - exact;
  }
  breakdown.transfer =
      transfer_.GeneralTransferCost(workload, spec.ingress);
  breakdown.requests = transfer_.RequestCost(workload);
  CV_ASSIGN_OR_RETURN(
      breakdown.storage,
      storage_.Cost(spec.base_storage, spec.storage_period));
  ApplyArchitecture(spec.architecture,
                    ReplicatedWriteBytes(spec.ingress.initial_dataset,
                                         DataSize::Zero(),
                                         spec.maintenance_cycles),
                    breakdown);
  return breakdown;
}

Result<CostBreakdown> CloudCostModel::CostWithViews(
    const WorkloadCostInput& workload, const ViewSetCostInput& views,
    const DeploymentSpec& spec) const {
  CV_RETURN_IF_ERROR(RejectSingleSessionArchitecture(spec));
  CostBreakdown breakdown;
  if (spec.single_compute_session) {
    // One rental session covering materialization, querying and
    // maintenance: exact per-activity charges, one rounding surcharge.
    Duration busy = workload.TotalProcessingTime() +
                    views.TotalMaterializationTime() +
                    views.TotalMaintenanceTime() * spec.maintenance_cycles;
    breakdown.processing = pricing_->ComputeCostExact(
        spec.instance, workload.TotalProcessingTime(), spec.nb_instances);
    breakdown.materialization = pricing_->ComputeCostExact(
        spec.instance, views.TotalMaterializationTime(),
        spec.nb_instances);
    breakdown.maintenance =
        pricing_->ComputeCostExact(spec.instance,
                                   views.TotalMaintenanceTime(),
                                   spec.nb_instances) *
        spec.maintenance_cycles;
    Money billed =
        pricing_->ComputeCost(spec.instance, busy, spec.nb_instances);
    breakdown.session_rounding =
        billed - (breakdown.processing + breakdown.materialization +
                  breakdown.maintenance);
  } else {
    breakdown.processing =
        compute_.ProcessingCost(workload, spec.instance,
                                spec.nb_instances);
    breakdown.materialization =
        compute_.MaterializationCost(views, spec.instance,
                                     spec.nb_instances);
    breakdown.maintenance =
        compute_.MaintenanceCost(views, spec.instance, spec.nb_instances,
                                 spec.maintenance_cycles);
  }
  // Transfer is unchanged by views (Section 4.1): views never leave the
  // cloud. Request charges likewise: the workload issues the same API
  // calls whichever view serves them.
  breakdown.transfer =
      transfer_.GeneralTransferCost(workload, spec.ingress);
  breakdown.requests = transfer_.RequestCost(workload);
  // Storage: base timeline plus the views' duplicated bytes, stored for
  // the whole period (Section 4.3).
  StorageTimeline with_views = spec.base_storage;
  CV_RETURN_IF_ERROR(
      with_views.AddDelta(Months::Zero(), views.TotalSize()));
  CV_ASSIGN_OR_RETURN(breakdown.storage,
                      storage_.Cost(with_views, spec.storage_period));
  ApplyArchitecture(spec.architecture,
                    ReplicatedWriteBytes(spec.ingress.initial_dataset,
                                         views.TotalSize(),
                                         spec.maintenance_cycles),
                    breakdown);
  return breakdown;
}

}  // namespace cloudview
