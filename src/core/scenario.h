// CloudScenario: one fully-wired deployment — dataset, lattice, simulated
// cluster, pricing — against which workloads are costed and view sets
// selected. This is the library's main entry point; every question goes
// through CloudScenario::Dispatch (core/advisor.h holds the request and
// response types).

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/lattice.h"
#include "common/result.h"
#include "core/advisor.h"
#include "core/cost/cloud_cost_model.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/selector.h"
#include "core/optimizer/temporal_planner.h"
#include "engine/cluster.h"
#include "engine/sales_generator.h"
#include "pricing/pricing_model.h"
#include "workload/ssb.h"
#include "workload/workload.h"

namespace cloudview {

/// \brief Everything that defines a deployment.
struct ScenarioConfig {
  /// Schema family: "sales" builds the paper's retail star from
  /// `sales`; "ssb" builds the Star Schema Benchmark lattice from
  /// `ssb` (workload/ssb.h — the serving benchmarks' smoke config).
  std::string schema = "sales";
  /// Dataset shape (defaults: the paper's 10 GB experimental subset).
  SalesConfig sales;
  /// SSB shape, read when schema == "ssb".
  SsbConfig ssb;
  /// Simulated-cluster timing constants.
  MapReduceParams mapreduce;
  /// CSP selection by ProviderRegistry name (see
  /// ProviderRegistry::Global().Names()).
  std::string provider = "aws-2012";
  /// Billing-semantic overrides applied to the registered sheet.
  /// Default: per-second compute billing (the Section 6 budgets are
  /// sub-dollar; see DESIGN.md §5.4). Examples reproducing the worked
  /// examples clear the granularity override to get the sheet's native
  /// started-hour billing.
  PricingOverrides pricing_overrides =
      PricingOverrides::ComputeGranularityOnly(BillingGranularity::kSecond);
  /// Rented configuration (paper Section 6: five identical VMs).
  std::string instance_name = "small";
  int64_t nb_instances = 5;
  /// Storage period. When `prorate_storage` is true the period is derived
  /// from the workload's no-view makespan (experiment-session billing);
  /// otherwise `storage_period` is used as-is.
  bool prorate_storage = true;
  Months storage_period = Months::FromMonths(1);
  /// Candidate generation knobs.
  CandidateGenOptions candidates;
  /// Maintenance rounds billed within the period (0 = read-only period).
  int64_t maintenance_cycles = 0;
  /// Bill all compute of a run as one rental session (round the busy
  /// total up once instead of per activity).
  bool single_compute_session = false;
  /// Multi-objective strategy a kFrontier request runs when it does
  /// not name one ("pareto-sweep" or "pareto-genetic"; DESIGN.md §10).
  std::string frontier_solver = "pareto-sweep";
};

/// \brief A wired-up deployment; build once, run many workloads.
class CloudScenario {
 public:
  static Result<CloudScenario> Create(ScenarioConfig config);

  /// \brief The one way to ask this deployment a question: a tagged
  /// AdvisorRequest in, a tagged AdvisorResponse (payload +
  /// ResponseMeta telemetry) out (core/advisor.h). kSolve may swap the
  /// rented cluster via `cluster_override` (instance-tier sweeps).
  /// kFrontier defaults to config().frontier_solver and kSolveJoint to
  /// "arch-sweep" (this deployment must bill under the identity
  /// architecture). kCompareProviders re-solves on every registered
  /// sheet with its native billing semantics (paper Section 8), one
  /// sheet after another, rows in sorted provider order; under
  /// "pareto-sweep" each row's run.selection.frontier is that sheet's
  /// whole frontier. kTimeline / kComparePolicies walk a
  /// TemporalPlanner, billing storage on the timeline's own period
  /// clock (DESIGN.md §8). `warm` (optional) is a session's warm-start
  /// slot — a matching slot skips candidate generation and evaluator
  /// construction and accumulates cache telemetry across requests; the
  /// caller serializes access to it.
  Result<AdvisorResponse> Dispatch(const AdvisorRequest& request,
                                   AdvisorWarmSlot* warm = nullptr) const;

  const ScenarioConfig& config() const { return config_; }
  const CubeLattice& lattice() const { return *lattice_; }
  const MapReduceSimulator& simulator() const { return *simulator_; }
  const ClusterSpec& cluster() const { return cluster_; }
  const PricingModel& pricing() const { return *pricing_; }
  const CloudCostModel& cost_model() const { return *cost_model_; }

  /// \brief The paper's 10-query workload on this scenario's lattice.
  /// Fails on non-"sales" schemas; prefer DefaultWorkload().
  Result<Workload> PaperWorkload() const;

  /// \brief The schema family's canonical workload: the paper's
  /// 10-query mix ("sales") or the SSB 13-query flights ("ssb") — what
  /// a WorkloadSpec of kind "default" resolves to.
  Result<Workload> DefaultWorkload() const;

  /// \brief Deployment parameters for `workload` (storage timeline,
  /// period, cluster) — exposed for custom evaluations.
  Result<DeploymentSpec> MakeDeployment(const Workload& workload,
                                        const ClusterSpec& cluster) const;

  /// \brief No-view workload cost/time on an alternative cluster (the
  /// MV2 scale-up arm rents bigger instances instead of materializing).
  Result<SubsetEvaluation> EvaluateWithoutViews(
      const Workload& workload, const ClusterSpec& cluster) const;

  /// \brief Cheapest instance type (same node count) whose no-view
  /// processing time meets `limit`; NotFound when none does.
  Result<ClusterSpec> CheapestClusterMeeting(
      const Workload& workload, Duration limit) const;

 private:
  explicit CloudScenario(ScenarioConfig config)
      : config_(std::move(config)) {}

  /// Rebuilds this deployment on `name`'s sheet (native billing
  /// semantics, instance matched by name or compute units) — one
  /// kCompareProviders row's deployment. `instance`/`granularity`
  /// report what was rented.
  Result<CloudScenario> ForProvider(const std::string& name,
                                    std::string* instance,
                                    BillingGranularity* granularity) const;

  // --- Dispatch impl bodies (core/advisor.cc) --------------------------

  /// The request's workload: inline pointer first, then the
  /// WorkloadSpec ("default" -> DefaultWorkload(), "queries" ->
  /// validated verbatim list).
  Result<Workload> ResolveWorkload(const AdvisorRequest& request) const;
  /// The request's timeline: inline pointer first, then generated from
  /// the TimelineSpec over `base`.
  Result<WorkloadTimeline> ResolveTimeline(const AdvisorRequest& request,
                                           const Workload& base) const;
  /// The kSolve body (candidates -> evaluator -> solver), optionally
  /// reusing / repopulating a session warm slot and reporting cache
  /// telemetry into `meta`.
  Result<SolveRun> SolveImpl(const Workload& workload,
                             const ObjectiveSpec& spec,
                             std::string_view solver,
                             const ClusterSpec* cluster_override,
                             AdvisorWarmSlot* warm,
                             ResponseMeta* meta) const;

  ScenarioConfig config_;
  // Heap-held so CloudScenario stays movable while internal references
  // (simulator -> lattice, cost model -> pricing) stay stable.
  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
};

}  // namespace cloudview

