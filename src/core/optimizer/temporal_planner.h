// TemporalPlanner: online re-selection of materialized views over a
// WorkloadTimeline.
//
// The paper's cost models are temporal — GB-month storage, billing
// periods, reserved rates — but its selection problem is solved once,
// for one frozen workload. The planner closes that gap: it walks a
// timeline of drifting per-period query mixes, re-runs any registered
// solver when its ReselectPolicy says so, and charges what a real
// deployment would pay month by month:
//
//   * operating costs — query processing, view maintenance, transfer,
//     request charges for the period's mix under the active selection;
//   * transition costs — when the selection changes, newly added views
//     are built (compute, Formula 8) and written into cloud storage
//     (billed as inserted-data ingress on CSPs that charge it);
//     dropped views simply stop occupying storage;
//   * carried storage — base data (plus dataset growth) and every
//     view's bytes live on ONE horizon-long StorageTimeline, so a view
//     materialized in month 2 and dropped in month 7 is billed for
//     exactly five months of Formula 5.
//
// Candidates are generated once, from the union of every period's mix,
// so candidate indices are stable across the horizon and each period's
// SubsetState can be warm-started from the previous period's selection
// (O(queries x |selection|) incremental adds — no cold Evaluate).
// Periods where the policy holds the selection are priced entirely from
// that warm state; re-selection periods run the named solver and keep
// the better of the fresh solve and a hill-climbed warm start (ties go
// to the warm start: fewer transitions for free).
//
// The expensive per-period work — each period's query-x-candidate
// timing table and baseline — depends only on the timeline, never on
// the walk, so Create() pre-materializes one SelectionEvaluator per
// period. The walk itself is inherently sequential (each period's warm
// start and sunk-build zeroing depend on the previous selection); it
// takes per-period O(queries + candidates) CloneWithSunkBuilds
// snapshots of the pre-built evaluators, which share the immutable
// timing tables. A re-selection's winner is a pure function of (period,
// carried selection) within one request, so ComparePolicies memoizes it
// across its policies' walks (DESIGN.md §8).
//
// Re-selection is transition-aware: views carried from the previous
// period have their materialization time zeroed in the period's
// candidate set — their build is sunk — so the solver only charges
// builds for views it newly adds. Without this, every re-solve would
// price carried views as if they had to be rebuilt and systematically
// under-select (the static policy would win by construction).
//
// See DESIGN.md §8. A kTimeline / kComparePolicies request to
// CloudScenario::Dispatch is the wired-up entry point.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/lattice.h"
#include "common/result.h"
#include "core/cost/cloud_cost_model.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/selector.h"
#include "engine/cluster.h"
#include "workload/timeline.h"

namespace cloudview {

/// \brief When the planner re-runs the solver.
struct ReselectPolicy {
  enum class Kind {
    /// Solve once in period 0, hold that selection for the horizon.
    kStatic,
    /// Re-solve every k-th period (k = 1: every period).
    kEveryK,
    /// Re-solve when the mix has drifted at least `drift_threshold`
    /// (WorkloadTimeline::Drift) since the last solve.
    kOnDrift,
  };

  Kind kind = Kind::kStatic;
  int64_t every_k = 1;
  double drift_threshold = 0.2;

  static ReselectPolicy Static() { return {Kind::kStatic, 1, 0.0}; }
  static ReselectPolicy EveryK(int64_t k) { return {Kind::kEveryK, k, 0.0}; }
  static ReselectPolicy OnDrift(double threshold) {
    return {Kind::kOnDrift, 1, threshold};
  }

  /// \brief "static", "every-3", "drift-0.20" — ledger/ comparison label.
  std::string Name() const;

  friend bool operator==(const ReselectPolicy&,
                         const ReselectPolicy&) = default;
};

/// \brief One period's line in the cost ledger.
struct TemporalPeriodRow {
  size_t period = 0;
  /// Candidate indices (into TemporalPlanner::candidates()) active
  /// during this period, ascending.
  std::vector<size_t> selected;
  /// True when the policy re-ran the solver this period.
  bool reselected = false;
  /// Mix drift vs the last re-selection's mix (0 for period 0).
  double drift = 0.0;
  size_t views_added = 0;
  size_t views_dropped = 0;
  /// The period's full bill. processing/maintenance/transfer/requests
  /// are operating charges; materialization (+ any ingress share of
  /// transfer) is the transition charge; storage is this period's slice
  /// of the horizon storage timeline.
  CostBreakdown cost;
  /// Formula 9 total for the period's mix under `selected`.
  Duration processing_time;
};

/// \brief A full walk of the timeline under one policy.
struct TemporalRunResult {
  ReselectPolicy policy;
  /// Registry name of the solver the re-selection periods ran.
  std::string solver;
  std::vector<TemporalPeriodRow> ledger;
  /// Sum of the ledger rows (storage sums to the horizon Formula 5).
  CostBreakdown total;
  /// How many periods re-selected (the wire's `solver_runs`).
  uint64_t solver_runs = 0;
  /// Re-selections this walk actually solved: solver_runs minus those a
  /// ComparePolicies memo answered, so equal to solver_runs for Run().
  /// Work telemetry only; not encoded on the wire.
  uint64_t fresh_solves = 0;
  /// Periods priced purely from the warm-started SubsetState.
  uint64_t warm_periods = 0;

  Duration TotalProcessingTime() const;
};

/// \brief Re-selects views along a WorkloadTimeline and keeps the bill.
///
/// Borrows the lattice, simulator and cost model (they must outlive the
/// planner); the timeline is copied in.
///
/// Concurrency contract (DESIGN.md §9): after Create(), the planner is
/// immutable — Run() and ComparePolicies() are const and safe to call
/// from several threads at once. Each call keeps all mutable state
/// (SubsetStates, evaluator clones, ComparePolicies' winner memo) on
/// its own stack and runs sequentially on the calling thread; the
/// shared pre-built per-period evaluators are read-only.
class TemporalPlanner {
 public:
  /// \brief Builds the planner: generates the shared candidate set from
  /// the union of all period mixes, precomputes per-period storage
  /// scaffolding, and pre-materializes each period's SelectionEvaluator
  /// (timing table + baseline).
  /// `maintenance_cycles` is charged per period. The horizon is
  /// deployed under the identity architecture (single-node on-demand).
  static Result<TemporalPlanner> Create(
      const CubeLattice& lattice, const MapReduceSimulator& simulator,
      const ClusterSpec& cluster, const CloudCostModel& cost_model,
      WorkloadTimeline timeline, const CandidateGenOptions& options,
      int64_t maintenance_cycles = 0);

  const std::vector<ViewCandidate>& candidates() const {
    return candidates_;
  }
  const WorkloadTimeline& timeline() const { return timeline_; }

  /// \brief Walks the timeline under `policy`, running the named
  /// registered solver on re-selection periods. `spec` is interpreted
  /// per period (an MV1 budget constrains each period's bill). The walk
  /// polls `spec.cancel` at each period head and, once it fired,
  /// returns the ledger walked so far.
  Result<TemporalRunResult> Run(
      const ObjectiveSpec& spec, const ReselectPolicy& policy,
      std::string_view solver = kDefaultSolverName) const;

  /// \brief Run() for each policy, same spec/solver — the
  /// static-vs-periodic-vs-drift comparison. The walks run one after
  /// another and share one memo of re-selection winners keyed by
  /// (period, carried selection), so a subproblem two policies reach
  /// is solved once. Rows keep policy order and equal standalone Run()
  /// results field for field, except `fresh_solves`.
  Result<std::vector<TemporalRunResult>> ComparePolicies(
      const ObjectiveSpec& spec,
      const std::vector<ReselectPolicy>& policies,
      std::string_view solver = kDefaultSolverName) const;

 private:
  TemporalPlanner(const CubeLattice& lattice,
                  const MapReduceSimulator& simulator,
                  const ClusterSpec& cluster,
                  const CloudCostModel& cost_model,
                  WorkloadTimeline timeline, int64_t maintenance_cycles)
      : lattice_(&lattice), simulator_(&simulator), cluster_(cluster),
        cost_model_(&cost_model), timeline_(std::move(timeline)),
        maintenance_cycles_(maintenance_cycles) {}

  /// Re-selection winners (ascending candidate indices) keyed by
  /// (period, ascending carried selection).
  using WinnerMemo =
      std::map<std::pair<size_t, std::vector<size_t>>, std::vector<size_t>>;

  /// Run()'s walk; `memo` (optional) answers and records re-selection
  /// winners. Only untruncated solves are recorded.
  Result<TemporalRunResult> Walk(const ObjectiveSpec& spec,
                                 const ReselectPolicy& policy,
                                 std::string_view solver_name,
                                 WinnerMemo* memo) const;

  /// Whether `policy` re-solves in period `p` given the drift since the
  /// last solve.
  static bool ShouldReselect(const ReselectPolicy& policy, size_t p,
                             double drift);

  /// Period-local deployment: the period's slice of the billing clock.
  DeploymentSpec PeriodDeployment(size_t p) const;

  const CubeLattice* lattice_;
  const MapReduceSimulator* simulator_;
  ClusterSpec cluster_;
  const CloudCostModel* cost_model_;
  WorkloadTimeline timeline_;
  int64_t maintenance_cycles_ = 0;
  std::vector<ViewCandidate> candidates_;
  /// Base-data volume at the start of each period (initial dataset plus
  /// accumulated growth); index num_periods() holds the end state.
  std::vector<DataSize> base_at_period_;
  /// One pre-built evaluator per period (full, un-zeroed candidate
  /// pool), built by Create(). Read-only: the walk probes
  /// CloneWithSunkBuilds snapshots, which share these timing tables and
  /// zero the carried views' builds.
  std::vector<std::unique_ptr<const SelectionEvaluator>> period_evaluators_;
};

}  // namespace cloudview

